// Federation-scale stager benchmark: a CASTOR-style central StagerScheduler
// driving N independent HighLight shards on one clock, loaded by a
// deterministic seeded population model — a million registered users whose
// sessions hit a Zipf-skewed file catalog with a diurnal arrival curve.
//
// Reported: p50/p95/p99 end-to-end fetch delay (admission queue wait plus
// shard service time), aggregate recall throughput across the shard farm,
// fair-share accounting per tenant, and the stager's admission/dispatch
// counters. Background migration passes and scrub increments ride the same
// admission queue at lower priority, so the tails show demand recalls
// preempting maintenance.
//
//   federation_scale            full run (1M users; the committed
//                               bench/baselines/federation_scale.json)
//   federation_scale --smoke    small population for CI
//                               (bench/baselines/federation_scale_smoke.json)
//
// Both modes are bit-deterministic: same seed, same json. Wall-clock
// throughput lands in the report's non-compared "info" section as
// sim_ops_per_sec.

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "federation/stager.h"
#include "highlight/highlight.h"
#include "util/observability_hub.h"
#include "workload/population.h"

namespace hl {
namespace {

using bench::Die;
using bench::DieOr;

constexpr uint64_t kSeed = 0xFEDE7A;
constexpr uint32_t kShards = 4;

struct ScaleParams {
  const char* report_name;
  uint64_t users;
  uint64_t sessions;
  uint64_t catalog_files;
  uint32_t files_per_shard;  // Migrated one-segment files (tseg pool).
  uint32_t cache_lines;
};

constexpr ScaleParams kFull = {
    .report_name = "federation_scale",
    .users = 1'000'000,
    .sessions = 12'000,
    .catalog_files = 32'768,
    .files_per_shard = 60,
    .cache_lines = 16,
};

constexpr ScaleParams kSmoke = {
    .report_name = "federation_scale_smoke",
    .users = 20'000,
    .sessions = 600,
    .catalog_files = 4'096,
    .files_per_shard = 24,
    .cache_lines = 8,
};

JukeboxProfile SmallJukebox() {
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = 4;
  j.volume_capacity_bytes = 20ull * 64 * kBlockSize;  // 20 segs per side.
  return j;
}

// One shard of the disk farm: a small HighLight instance whose tertiary
// pool holds `files_per_shard` migrated one-segment files, tracing into
// `shared_spans` through a "shardN." view.
std::unique_ptr<HighLightFs> BuildShard(SimClock* clock,
                                        const ScaleParams& params,
                                        uint32_t shard,
                                        SpanTracer* shared_spans) {
  HighLightConfig config = DieOr(
      HighLightConfig::Builder()
          .AddDisk(Rz57Profile(), 16 * 1024)
          .AddJukebox(SmallJukebox(), /*write_once=*/false,
                      /*segs_per_volume=*/20)
          .SegSizeBlocks(64)
          .CacheMaxSegments(params.cache_lines)
          .AsyncReadPipeline(true)
          .TimeseriesCadence(0)  // One timeline, N shards: no sampling.
          .SharedSpans(shared_spans, "shard" + std::to_string(shard) + ".")
          .Build(),
      "shard config");
  auto hl = DieOr(HighLightFs::Create(config, clock), "shard create");

  MigratorOptions data_only;
  data_only.migrate_inode = false;
  data_only.migrate_metadata = false;
  std::vector<uint32_t> inos;
  for (uint32_t i = 0; i < params.files_per_shard; ++i) {
    std::string path = "/f" + std::to_string(i);
    uint32_t ino = DieOr(hl->fs().Create(path), "create");
    Die(hl->fs().Write(ino, 0,
                       bench::Payload(200 * 1024, kSeed + shard * 1000 + i)),
        "write");
    inos.push_back(ino);
  }
  Die(hl->fs().Sync(), "sync");
  DieOr(hl->Internals().migrator.MigrateFiles(inos, data_only), "migrate");
  Die(hl->DropCleanCacheLines(), "drop cache");
  return hl;
}

uint64_t HistPercentile(const MetricsSnapshot& snap, const std::string& name,
                        double p) {
  for (const auto& [hist_name, data] : snap.histograms) {
    if (hist_name == name) {
      return data.Percentile(p);
    }
  }
  return 0;
}

}  // namespace
}  // namespace hl

int main(int argc, char** argv) {
  using namespace hl;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const ScaleParams& scale = smoke ? kSmoke : kFull;

  bench::Title(std::string("Federation scale: central stager, ") +
               std::to_string(kShards) + " shards, " +
               std::to_string(scale.users) + " users");
  bench::Note("demand recalls > migration passes > scrub; per-tenant "
              "fair share; 2 drive tokens shared across the shard farm");

  SimClock clock;
  // One observability plane over the whole federation: every shard traces
  // into the hub's core tracer through a "shardN." view, so the stager's
  // dispatch and the shard fetches it drives are one causal span tree.
  ObservabilityHub hub(&clock);
  std::vector<std::unique_ptr<HighLightFs>> shards;
  std::vector<std::vector<uint32_t>> fetchable(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    shards.push_back(BuildShard(&clock, scale, s, &hub.spans()));
    fetchable[s] = shards.back()->FetchableSegments();
    if (fetchable[s].empty()) {
      bench::Die(Status(ErrorCode::kInternal, "shard has no tertiary pool"),
                 "setup");
    }
    hub.Register("shard" + std::to_string(s), &shards.back()->metrics(),
                 &shards.back()->spans(), &shards.back()->timeseries());
  }

  StagerConfig stager_config;
  stager_config.max_queue = 8192;
  stager_config.max_batch = 16;
  stager_config.fair_share_quantum = 8;
  stager_config.drive_tokens = 2;  // Shared drive farm: 2 of 4 shards/round.
  StagerScheduler stager(&clock, stager_config);
  for (const auto& shard : shards) {
    stager.AddShard(shard.get());
  }
  stager.SetSpans(&hub.spans());
  hub.Register("stager", &stager.metrics(), nullptr, nullptr);

  // Federation-level series + SLOs the hub watches each sampling instant.
  hub.AddSeries("stager.queue_depth", [&stager] {
    return static_cast<int64_t>(stager.PendingRequests());
  });
  Histogram::Data* fetch_delay =
      stager.metrics().HistogramSlot("stager.fetch_delay_us");
  hub.AddSeries("stager.fetch_delay_p99_us", [fetch_delay] {
    return static_cast<int64_t>(fetch_delay->Percentile(0.99));
  });
  hub.AddSlo(SloRule{.name = "fetch_p99",
                     .series = "stager.fetch_delay_p99_us",
                     .threshold = 5'000'000});  // 5 s end-to-end recall.
  hub.AddSlo(SloRule{.name = "queue_depth",
                     .series = "stager.queue_depth",
                     .threshold = 64});
  // The hub's tick hook samples the federation series and runs the SLO
  // watch; each shard's sampler ticks through the hook its Create installed.
  hub.InstallTickHook();

  uint64_t swaps_before = 0;
  uint64_t bytes_before = 0;
  for (const auto& shard : shards) {
    swaps_before += shard->MediaSwaps();
  }
  for (auto& shard : shards) {
    bytes_before += shard->Metrics().Value("io.bytes_fetched");
  }

  PopulationParams pop;
  pop.users = scale.users;
  pop.tenants = 6;
  pop.catalog_files = scale.catalog_files;
  pop.zipf_theta = 0.99;
  pop.sessions = scale.sessions;
  pop.mean_session_requests = 4;
  pop.diurnal_amplitude = 0.6;
  pop.sequential_fraction = 0.3;
  pop.seed = kSeed;
  PopulationGenerator gen(pop);

  // The population clock starts at zero; the shard-setup writes already
  // advanced sim time, so all event times are offset by the setup epoch.
  const SimTime epoch = clock.Now();
  constexpr SimTime kHour = 3600ull * kUsPerSec;
  // The stager dispatches on a fixed cadence (a real stager's queue poll):
  // requests batch up for at most one interval before a round fires.
  constexpr SimTime kPumpInterval = 5 * kUsPerSec;
  SimTime next_background = kHour;
  SimTime next_pump = kPumpInterval;
  uint64_t busy_retries = 0;
  const auto wall_start = std::chrono::steady_clock::now();

  while (auto ev = gen.Next()) {
    while (next_pump <= ev->at) {
      if (stager.PendingRequests() > 0) {
        if (epoch + next_pump > clock.Now()) {
          clock.AdvanceTo(epoch + next_pump);
        }
        Die(stager.Pump(), "pump");
      }
      next_pump += kPumpInterval;
    }
    SimTime at = epoch + ev->at;
    if (at > clock.Now()) {
      clock.AdvanceTo(at);
    }
    if (ev->at >= next_background) {
      // Hourly maintenance rides the admission queue below demand: a
      // cold-range migration pass and a scrub increment per shard.
      for (uint32_t s = 0; s < kShards; ++s) {
        Die(stager.SubmitMigration(
                "ops", static_cast<int>(s),
                MigrationRequest{.cold_cutoff = clock.Now() - kHour}),
            "submit migration");
        Die(stager.SubmitScrub(static_cast<int>(s), 4), "submit scrub");
      }
      next_background += kHour;
    }
    uint32_t shard = static_cast<uint32_t>(ev->file % kShards);
    const auto& pool = fetchable[shard];
    uint32_t tseg = pool[(ev->file / kShards) % pool.size()];
    std::string tenant = "t" + std::to_string(ev->tenant);
    Status s = stager.SubmitFetch(tenant, static_cast<int>(shard), tseg);
    while (s.code() == ErrorCode::kBusy) {
      busy_retries++;
      Die(stager.Pump(), "pump");
      s = stager.SubmitFetch(tenant, static_cast<int>(shard), tseg);
    }
    Die(s, "submit fetch");
  }
  Die(stager.RunUntilIdle(), "drain");
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  const SimTime elapsed = clock.Now() - epoch;
  uint64_t swaps = 0;
  uint64_t bytes_fetched = 0;
  for (auto& shard : shards) {
    swaps += shard->MediaSwaps();
    bytes_fetched += shard->Metrics().Value("io.bytes_fetched");
  }
  swaps -= swaps_before;
  bytes_fetched -= bytes_before;

  MetricsSnapshot snap = stager.Metrics();
  auto ms = [](uint64_t us) { return static_cast<double>(us) / 1000.0; };
  double p50 = ms(HistPercentile(snap, "stager.fetch_delay_us", 0.50));
  double p95 = ms(HistPercentile(snap, "stager.fetch_delay_us", 0.95));
  double p99 = ms(HistPercentile(snap, "stager.fetch_delay_us", 0.99));
  double wait_p99 = ms(HistPercentile(snap, "stager.queue_wait_us", 0.99));
  double elapsed_s = static_cast<double>(elapsed) / kUsPerSec;
  double throughput_mb_s =
      elapsed == 0 ? 0.0
                   : static_cast<double>(bytes_fetched) / (1 << 20) /
                         elapsed_s;

  bench::JsonReport report(scale.report_name);
  report.Value("shards", static_cast<uint64_t>(kShards));
  report.Value("users", pop.users);
  report.Value("sessions", gen.sessions_emitted());
  report.Value("requests", gen.requests_emitted());
  report.Value("fetch_delay_p50_ms", p50);
  report.Value("fetch_delay_p95_ms", p95);
  report.Value("fetch_delay_p99_ms", p99);
  report.Value("queue_wait_p99_ms", wait_p99);
  report.Value("aggregate_throughput_mb_s", throughput_mb_s);
  report.Value("bytes_recalled", bytes_fetched);
  report.Value("media_swaps", swaps);
  report.Value("demand_served", snap.Value("stager.demand_served"));
  report.Value("cache_hits", snap.Value("stager.cache_hits"));
  report.Value("coalesced", snap.Value("stager.coalesced"));
  report.Value("batches_dispatched", snap.Value("stager.batches_dispatched"));
  report.Value("drive_waits", snap.Value("stager.drive_waits"));
  report.Value("admission_rejections", snap.Value("stager.rejected"));
  report.Value("busy_retries", busy_retries);
  report.Value("migration_runs", snap.Value("stager.migration_runs"));
  report.Value("scrub_steps", snap.Value("stager.scrub_steps"));
  for (const std::string& tenant : stager.Tenants()) {
    report.Value("served." + tenant, stager.ServedFor(tenant));
  }
  // Wall-clock facts go in the non-compared "info" section: host speed is
  // nondeterministic, and these must never perturb the bit-identity gate.
  report.Info("wall_seconds", wall_seconds);
  report.Info("sim_ops_per_sec",
              wall_seconds > 0.0
                  ? static_cast<double>(gen.requests_emitted()) / wall_seconds
                  : 0.0);
  report.Snapshot("stager", snap);
  report.Snapshot("shard0", shards[0]->Metrics());
  report.Snapshot("hub", hub.MergedSnapshot());
  report.TimelineDocument(hub.MergedTimelineJson());
  bench::CheckSpansQuiescent(hub.spans(), "federation_scale");
  for (uint32_t s = 0; s < kShards; ++s) {
    bench::CheckSpansQuiescent(shards[s]->spans(), "federation_scale shard");
  }

  bench::Table table({"Metric", "Value"});
  table.AddRow({"users", std::to_string(pop.users)});
  table.AddRow({"requests", std::to_string(gen.requests_emitted())});
  table.AddRow({"fetch delay p50", bench::Fmt("%.1f ms", p50)});
  table.AddRow({"fetch delay p95", bench::Fmt("%.1f ms", p95)});
  table.AddRow({"fetch delay p99", bench::Fmt("%.1f ms", p99)});
  table.AddRow({"queue wait p99", bench::Fmt("%.1f ms", wait_p99)});
  table.AddRow({"aggregate throughput",
                bench::Fmt("%.2f MB/s", throughput_mb_s)});
  table.AddRow({"media swaps", std::to_string(swaps)});
  table.AddRow({"cache hits", std::to_string(snap.Value("stager.cache_hits"))});
  table.AddRow({"drive waits",
                std::to_string(snap.Value("stager.drive_waits"))});
  table.AddRow(
      {"sim ops/sec (wall)",
       bench::Fmt("%.0f", wall_seconds > 0.0
                              ? static_cast<double>(gen.requests_emitted()) /
                                    wall_seconds
                              : 0.0)});
  table.Print();

  bench::Table tenants({"Tenant", "Served"});
  for (const std::string& tenant : stager.Tenants()) {
    tenants.AddRow({tenant, std::to_string(stager.ServedFor(tenant))});
  }
  tenants.Print();

  report.Write();
  return 0;
}
