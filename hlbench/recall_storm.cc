// recall_storm: demand recalls only, against four shards behind one stager.
//
// A CASTOR-style population (Zipf file popularity, diurnal arrivals) recalls
// one-segment files from a tertiary pool at least four times the size of
// each shard's segment cache, so most recalls miss and go to the jukebox.
// The stager pumps every 5 s of simulated time (open loop in sim time; the
// benchmark thread is closed-loop in host time). No maintenance is submitted:
// the read path — stager dispatch, FetchBatch, the I/O server's fetch and
// CRC verify, cache install, media swaps — does the work while the LFS
// write path, the migrator and the replicator sit idle.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "federation/stager.h"
#include "highlight/highlight.h"
#include "hlbench.h"
#include "seams.h"
#include "util/observability_hub.h"
#include "workload/population.h"

namespace hlbench {
namespace {

constexpr uint32_t kShards = 4;
constexpr uint64_t kSessions = 400;
constexpr hl::SimTime kPumpInterval = 5 * hl::kUsPerSec;
// 48 files fill ~38 segments, over 4x the 8-line cache. Small volumes
// spread each pool over four volumes, more than the two drives hold, so
// recalls pay media swaps.
constexpr PoolSpec kShardPool = {
    .files = 48, .segs_per_volume = 10, .slots = 8};

uint64_t ShardKey(uint64_t seed, uint32_t shard) {
  return Mix(seed, 0x5709 + shard);
}

}  // namespace

RunResult RunRecallStorm(uint64_t seed, HostTrace* trace) {
  RunResult r;
  const auto setup_start = Clock::now();
  hl::SimClock clock;
  hl::ObservabilityHub hub(&clock);
  std::vector<std::unique_ptr<hl::HighLightFs>> shards;
  std::vector<std::unique_ptr<TimedBackend>> seams;
  std::vector<std::vector<uint32_t>> pools(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    shards.push_back(BuildPool(kShardPool, &clock, &hub.spans(),
                               "shard" + std::to_string(s) + ".",
                               ShardKey(seed, s), trace, r));
    if (shards.back() == nullptr) {
      return r;
    }
    seams.push_back(std::make_unique<TimedBackend>(shards.back().get(), trace));
    pools[s] = seams.back()->FetchableSegments();
    r.Check(pools[s].size() >= 4 * kPoolCacheLines,
            "setup: tertiary pool is at least 4x the segment cache");
    if (pools[s].empty()) {
      return r;
    }
    hl::HighLightFs& shard = *shards.back();
    hub.Register("shard" + std::to_string(s), &shard.metrics(), &shard.trace(),
                 &shard.spans(), &shard.timeseries());
  }

  hl::StagerConfig stager_config;
  stager_config.max_queue = 8192;
  stager_config.max_batch = 16;
  stager_config.fair_share_quantum = 8;
  stager_config.drive_tokens = 2;  // Shared drive farm: 2 of 4 shards/round.
  hl::StagerScheduler stager(&clock, stager_config);
  for (auto& seam : seams) {
    stager.AddShard(seam.get());
  }
  stager.SetSpans(&hub.spans());
  stager.SetTracer(hl::Tracer(&hub.trace()));
  hub.Register("stager", &stager.metrics(), nullptr, nullptr, nullptr);
  hub.AddSeries("stager.queue_depth", [&stager] {
    return static_cast<int64_t>(stager.PendingRequests());
  });
  hl::Histogram::Data* fetch_delay =
      stager.metrics().HistogramSlot("stager.fetch_delay_us");
  hub.AddSeries("stager.fetch_delay_p99_us", [fetch_delay] {
    return static_cast<int64_t>(fetch_delay->Percentile(0.99));
  });
  hub.AddSlo(hl::SloRule{.name = "fetch_p99",
                         .series = "stager.fetch_delay_p99_us",
                         .threshold = 5'000'000});
  hub.InstallTickHook();

  hl::PopulationParams pop;
  pop.users = 200'000;
  pop.tenants = 6;
  pop.catalog_files = 4096;
  pop.zipf_theta = 0.99;
  pop.sessions = kSessions;
  pop.mean_session_requests = 4;
  pop.diurnal_amplitude = 0.6;
  pop.sequential_fraction = 0.3;
  pop.seed = Mix(seed, 0x9E11);
  hl::PopulationGenerator gen(pop);
  std::vector<std::string> tenants;
  for (uint32_t t = 0; t < pop.tenants; ++t) {
    tenants.push_back("t" + std::to_string(t));
  }
  std::vector<hl::MetricsSnapshot> before;
  for (auto& shard : shards) {
    before.push_back(shard->Metrics());
  }
  r.setup_s = SecondsSince(setup_start);

  // --- Timed phase --------------------------------------------------------
  const auto run_start = Clock::now();
  const hl::SimTime epoch = clock.Now();
  hl::SimTime next_pump = kPumpInterval;
  // How late each submit ran after its due time (the open-loop lag).
  hl::MetricsRegistry workload_metrics;
  hl::Histogram submit_lag_us =
      workload_metrics.histogram("workload.submit_lag_us");
  uint64_t busy_retries = 0;
  auto pump = [&] {
    Span span(trace, kStagerPump);
    r.Op(stager.Pump());
  };
  while (true) {
    std::optional<hl::PopulationEvent> ev;
    {
      Span span(trace, kWorkloadNext);
      ev = gen.Next();
    }
    if (!ev) {
      break;
    }
    while (next_pump <= ev->at) {
      if (stager.PendingRequests() > 0) {
        if (epoch + next_pump > clock.Now()) {
          clock.AdvanceTo(epoch + next_pump);
        }
        pump();
      }
      next_pump += kPumpInterval;
    }
    const hl::SimTime due = epoch + ev->at;
    if (due > clock.Now()) {
      clock.AdvanceTo(due);
    }
    submit_lag_us.Observe(clock.Now() - due);
    const uint32_t shard = static_cast<uint32_t>(ev->file % kShards);
    const std::vector<uint32_t>& pool = pools[shard];
    const uint32_t tseg = pool[(ev->file / kShards) % pool.size()];
    const std::string& tenant = tenants[ev->tenant % tenants.size()];
    r.attempted++;
    auto submit = [&] {
      Span span(trace, kStagerSubmit);
      return stager.SubmitFetch(tenant, static_cast<int>(shard), tseg);
    };
    hl::Status s = submit();
    while (s.code() == hl::ErrorCode::kBusy) {
      busy_retries++;
      pump();
      s = submit();
    }
    r.Op(s);
  }
  {
    Span span(trace, kStagerPump);
    r.Op(stager.RunUntilIdle());
  }
  r.run_s = SecondsSince(run_start);
  const hl::SimTime sim_elapsed = clock.Now() - epoch;

  // --- Simulated-time metrics (snapshotted before the gate touches state) -
  hl::MetricsSnapshot st;
  std::vector<hl::MetricsSnapshot> after;
  {
    Span span(trace, kHlMetrics);
    st = stager.Metrics();
    for (auto& shard : shards) {
      after.push_back(shard->Metrics());
    }
  }
  const uint64_t admitted = st.Value("stager.demand_admitted");
  const uint64_t served = st.Value("stager.demand_served");
  const uint64_t fetch_errors = st.Value("stager.fetch_errors");
  r.failed += admitted - std::min(admitted, served);
  const hl::Histogram::Data delay = FindHist(st, "stager.fetch_delay_us");
  uint64_t swaps = 0, fetched = 0, mounted = 0, jb_busy_us = 0, retries = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    swaps += after[s].Value("footprint.media_swaps") -
             before[s].Value("footprint.media_swaps");
    fetched += after[s].Value("io.segments_fetched") -
               before[s].Value("io.segments_fetched");
    mounted += SumMatching(after[s], "jukebox.", ".mounted_transfers") -
               SumMatching(before[s], "jukebox.", ".mounted_transfers");
    jb_busy_us += SumMatching(after[s], "jukebox.", ".busy_us") -
                  SumMatching(before[s], "jukebox.", ".busy_us");
    retries += after[s].Value("io.retries");
    r.crc_bytes += CrcBytesOf(after[s], kPoolSegmentBytes) -
                   CrcBytesOf(before[s], kPoolSegmentBytes);
  }
  r.Sim("sim_recall_p50_ms", PercentileMs(delay, 0.50), "ms");
  r.Sim("sim_recall_p99_ms", PercentileMs(delay, 0.99), "ms");
  r.Sim("sim_recall_samples", static_cast<double>(delay.count), "count");
  r.Sim("sim_elapsed_s", static_cast<double>(sim_elapsed) / hl::kUsPerSec,
        "s");
  r.Sim("federation.stager.queue_wait_p99_ms",
        PercentileMs(FindHist(st, "stager.queue_wait_us"), 0.99), "ms");
  r.Sim("federation.stager.batch_mean",
        Ratio(static_cast<double>(served + fetch_errors),
              static_cast<double>(st.Value("stager.batches_dispatched"))),
        "requests");
  r.Sim("federation.stager.coalesced",
        static_cast<double>(st.Value("stager.coalesced")), "count");
  r.Sim("federation.stager.drive_waits",
        static_cast<double>(st.Value("stager.drive_waits")), "count");
  r.Sim("federation.stager.recall_hit_ratio",
        Ratio(static_cast<double>(st.Value("stager.cache_hits")),
              static_cast<double>(served)),
        "ratio");
  r.Sim("federation.stager.busy_retries", static_cast<double>(busy_retries),
        "count");
  r.Sim("workload.submit_lag_p99_ms",
        PercentileMs(FindHist(workload_metrics.Snapshot(),
                              "workload.submit_lag_us"),
                     0.99),
        "ms");
  r.Sim("highlight.io.fetch_p99_ms",
        PercentileMs(MergedHist(after, "io.fetch_latency_us"), 0.99), "ms");
  r.Sim("tertiary.media_swaps_per_fetch",
        Ratio(static_cast<double>(swaps), static_cast<double>(fetched)),
        "ratio");
  r.Sim("tertiary.mounted_ratio",
        Ratio(static_cast<double>(mounted),
              static_cast<double>(mounted + swaps)),
        "ratio");
  r.Sim("tertiary.busy_ratio",
        Ratio(static_cast<double>(jb_busy_us),
              static_cast<double>(kShards) * static_cast<double>(sim_elapsed)),
        "ratio");
  r.Sim("highlight.io.retries", static_cast<double>(retries), "count");
  r.Sim("federation.stager.fetch_errors", static_cast<double>(fetch_errors),
        "count");
  r.FoldSimMetrics();
  r.FoldSnapshot("stager", st);
  for (uint32_t s = 0; s < kShards; ++s) {
    r.FoldSnapshot("shard" + std::to_string(s), after[s]);
  }

  // --- Correctness gate ---------------------------------------------------
  r.Check(admitted == served && fetch_errors == 0,
          "every admitted recall is served");
  bool readback_ok = true;
  for (uint32_t s = 0; s < kShards; ++s) {
    readback_ok &= ReadBackPool(*shards[s], kShardPool.files, ShardKey(seed, s),
                                trace, r);
  }
  r.Check(readback_ok, "recalled files read back byte-equal");
  r.Check(hub.spans().quiescent(), "engine span context is quiescent");
  return r;
}

}  // namespace hlbench
