// Policy evaluation on environment traces — the study the paper defers to
// future work ("Future work will evaluate the candidate migration policies
// to determine which seem to provide the best performance in the Sequoia
// environment", section 9).
//
// Three synthetic environments (workstation / supercomputing / Sequoia, per
// the trace studies the paper cites) are replayed against four migration
// policies under a high/low-water-mark regime. Reported: read latency, slow
// (tertiary-stalled) reads, demand fetches and media swaps. Every table
// cell is also written to BENCH_policy_trace_bench.json, pinned to
// bench/baselines/policy_trace_bench.json by scripts/check.sh.

#include "bench/bench_util.h"
#include "highlight/highlight.h"
#include "workload/replayer.h"
#include "workload/trace.h"

namespace hl {
namespace {

using bench::Die;
using bench::DieOr;

std::unique_ptr<HighLightFs> Build(SimClock& clock) {
  HighLightConfig config;
  // A deliberately tight disk so migration pressure is real.
  config.disks.push_back({Rz57Profile(), 24 * 1024});  // 96 MB.
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = 8;
  config.jukeboxes.push_back({j, false, 0});
  config.lfs.cache_max_segments = 16;
  return DieOr(HighLightFs::Create(config, &clock), "create");
}

std::unique_ptr<MigrationPolicy> MakePolicy(const std::string& name) {
  if (name == "stp") {
    return std::make_unique<StpPolicy>();
  }
  if (name == "age") {
    return std::make_unique<AgePolicy>();
  }
  if (name == "size") {
    return std::make_unique<SizePolicy>();
  }
  return std::make_unique<NamespacePolicy>("/");
}

void RunEnvironment(const std::string& env_name, const Trace& trace,
                    bench::JsonReport& report) {
  bench::Title("Policy comparison on the " + env_name + " trace (" +
               bench::Fmt("%.0f MB written, ",
                          static_cast<double>(trace.TotalBytesWritten()) /
                              (1 << 20)) +
               bench::Fmt("%.0f MB read)",
                          static_cast<double>(trace.TotalBytesRead()) /
                              (1 << 20)));
  bench::Table table({"Policy", "mean read", "max read", "slow reads",
                      "fetches", "swaps", "migrated"});
  for (const char* policy_name : {"stp", "age", "size", "namespace"}) {
    SimClock clock;
    auto hl = Build(clock);
    auto policy = MakePolicy(policy_name);
    TraceReplayer replayer(hl.get(), policy.get());
    ReplayStats stats = DieOr(replayer.Replay(trace), "replay");
    const std::string key = env_name + "." + policy_name + ".";
    report.Value(key + "mean_read_ms", stats.MeanReadLatencyMs());
    report.Value(key + "max_read_us", stats.max_read_latency);
    report.Value(key + "slow_reads", stats.slow_reads);
    report.Value(key + "demand_fetches", stats.demand_fetches);
    report.Value(key + "media_swaps", stats.media_swaps);
    report.Value(key + "bytes_migrated", stats.bytes_migrated);
    table.AddRow({policy_name,
                  bench::Fmt("%.1f ms", stats.MeanReadLatencyMs()),
                  bench::Seconds(stats.max_read_latency),
                  bench::Fmt("%.0f", static_cast<double>(stats.slow_reads)),
                  bench::Fmt("%.0f",
                             static_cast<double>(stats.demand_fetches)),
                  bench::Fmt("%.0f", static_cast<double>(stats.media_swaps)),
                  bench::Fmt("%.0f MB",
                             static_cast<double>(stats.bytes_migrated) /
                                 (1 << 20))});
  }
  table.Print();
}

}  // namespace
}  // namespace hl

int main() {
  using namespace hl;
  bench::Note("high/low water marks: migrate when <30% of log segments are "
              "clean, until 50% are (the UniTree-style scheme of section "
              "8.1), policy choosing what to send to tape");

  WorkstationTraceParams ws;
  ws.days = 12;
  ws.projects = 8;
  ws.files_per_project = 16;
  ws.mean_file_bytes = 768 * 1024;  // ~96 MB total: real pressure.
  bench::JsonReport report("policy_trace_bench");
  RunEnvironment("workstation", GenerateWorkstationTrace(ws), report);
  RunEnvironment("supercomputing", GenerateSupercomputingTrace({}), report);
  RunEnvironment("sequoia", GenerateSequoiaTrace({}), report);
  report.Write();
  return 0;
}
