// site_rebuild: two sites joined by a SiteReplicator over a WanLink.
//
// Site A serves a seeded recall population through the stager. The run
// ships A's tertiary population to B (initial sync), kills A two fifths of
// the way through the population (every volume erased, the CRC catalog
// wiped, the site quarantined), fails A's demand over to B, rebuilds A from
// B by incremental anti-entropy interleaved with service rounds, and ends
// with a full anti-entropy comparison and a scrub of the rebuilt site. It is
// the one workload where the replicator, the WAN model, segment image
// read/install and the scrubber do most of the work.

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "federation/site_replicator.h"
#include "federation/stager.h"
#include "highlight/highlight.h"
#include "hlbench.h"
#include "seams.h"
#include "util/fault_injector.h"
#include "util/observability_hub.h"
#include "util/wan_link.h"
#include "workload/population.h"

namespace hlbench {
namespace {

constexpr uint64_t kSessions = 400;
constexpr uint32_t kAntiEntropyBatch = 4;
constexpr hl::SimTime kPumpInterval = 5 * hl::kUsPerSec;
// Both sites are built from the same seeded inputs, so their tertiary
// layouts match — the replication contract.
constexpr PoolSpec kSitePool = {
    .files = 24, .segs_per_volume = 20, .slots = 4};

// Total loss of one site's tertiary store: every volume holding its pool
// erased, the in-core CRC catalog wiped, the cache dropped.
hl::Status KillSite(hl::HighLightFs* site) {
  auto internals = site->Internals();
  std::set<uint32_t> volumes;
  for (uint32_t tseg : site->FetchableSegments()) {
    volumes.insert(internals.address_map.VolumeOfTseg(tseg));
  }
  for (uint32_t volume : volumes) {
    RETURN_IF_ERROR(internals.footprint.EraseVolume(static_cast<int>(volume)));
  }
  for (uint32_t tseg = 0; tseg < internals.tseg_table.size(); ++tseg) {
    internals.tseg_table.ClearCrc(tseg);
  }
  return site->DropCleanCacheLines();
}

}  // namespace

RunResult RunSiteRebuild(uint64_t seed, HostTrace* trace) {
  RunResult r;
  hl::PopulationParams pop;
  pop.users = 20'000;
  pop.tenants = 6;
  pop.catalog_files = 4096;
  pop.zipf_theta = 0.99;
  pop.sessions = kSessions;
  pop.mean_session_requests = 4;
  pop.diurnal_amplitude = 0.6;
  pop.sequential_fraction = 0.3;
  pop.seed = Mix(seed, 0xD15A);
  // A counting pass sizes the stream so the kill lands two fifths in.
  uint64_t total_events = 0;
  {
    hl::PopulationGenerator counter(pop);
    while (counter.Next()) {
      total_events++;
    }
  }
  const uint64_t kill_at_event = total_events * 2 / 5;

  const auto setup_start = Clock::now();
  hl::SimClock clock;
  hl::FaultInjector faults(&clock, seed);
  hl::ObservabilityHub hub(&clock);
  const uint64_t key_base = Mix(seed, 0x517E);
  std::unique_ptr<hl::HighLightFs> site_a =
      BuildPool(kSitePool, &clock, &hub.spans(), "siteA.", key_base, trace, r);
  if (site_a == nullptr) {
    return r;
  }
  std::unique_ptr<hl::HighLightFs> site_b =
      BuildPool(kSitePool, &clock, &hub.spans(), "siteB.", key_base, trace, r);
  if (site_b == nullptr) {
    return r;
  }
  TimedBackend backend_a(site_a.get(), trace);
  TimedBackend backend_b(site_b.get(), trace);
  TimedSiteStore store_a(site_a.get(), trace);
  TimedSiteStore store_b(site_b.get(), trace);
  const std::vector<uint32_t> pool = backend_a.FetchableSegments();
  if (pool.empty()) {
    r.Check(false, "setup: site has no tertiary pool");
    return r;
  }

  hl::WanLink link("a-b", &clock);
  link.AttachFaults(faults.Channel("wan.a-b"));
  link.SetSpans(&hub.spans());
  hl::SiteReplicator repl(&clock);
  repl.SetSpans(&hub.spans());
  const int kSiteA = repl.AddSite("a", &store_a);
  const int kSiteB = repl.AddSite("b", &store_b);
  repl.SetLink(kSiteA, kSiteB, &link);

  hl::StagerConfig stager_config;
  stager_config.max_queue = 8192;
  stager_config.max_batch = 16;
  stager_config.fair_share_quantum = 8;
  stager_config.aging_rounds = 4;
  hl::StagerScheduler stager(&clock, stager_config);
  const int kShardA = stager.AddShard(&backend_a);
  const int kShardB = stager.AddShard(&backend_b);
  stager.SetShardSite(kShardA, kSiteA);
  stager.SetShardSite(kShardB, kSiteB);
  stager.SetFailoverPeer(kShardA, kShardB);
  stager.SetFailoverPeer(kShardB, kShardA);
  stager.SetSiteHealthProvider(&repl);
  stager.SetSpans(&hub.spans());
  stager.SetTracer(hl::Tracer(&hub.trace()));
  hub.Register("siteA", &site_a->metrics(), &site_a->trace(),
               &site_a->spans(), &site_a->timeseries());
  hub.Register("siteB", &site_b->metrics(), &site_b->trace(),
               &site_b->spans(), &site_b->timeseries());
  hub.Register("stager", &stager.metrics(), nullptr, nullptr, nullptr);
  hub.Register("replicator", &repl.metrics(), nullptr, nullptr, nullptr);
  hub.AddSeries("wan.inflight_bytes", [&link] {
    return static_cast<int64_t>(link.inflight_bytes());
  });
  hub.AddSeries("siteB.replication_lag_s", [&repl, kSiteB] {
    return static_cast<int64_t>(repl.ReplicationLag(kSiteB) / hl::kUsPerSec);
  });
  hub.AddSlo(hl::SloRule{.name = "replication_lag",
                         .series = "siteB.replication_lag_s",
                         .threshold = 30});
  hub.InstallTickHook();
  hl::PopulationGenerator gen(pop);
  std::vector<std::string> tenants;
  for (uint32_t t = 0; t < pop.tenants; ++t) {
    tenants.push_back("t" + std::to_string(t));
  }
  const hl::MetricsSnapshot before_a = site_a->Metrics();
  const hl::MetricsSnapshot before_b = site_b->Metrics();
  r.setup_s = SecondsSince(setup_start);

  // --- Timed phase --------------------------------------------------------
  const auto run_start = Clock::now();
  // Initial sync: A's whole tertiary population ships to B.
  {
    Span span(trace, kReplicator);
    hl::Result<uint32_t> enqueued = repl.EnqueueNewSegments(kSiteA);
    r.Check(enqueued.ok() && *enqueued == pool.size(),
            "initial sync enqueues the whole pool");
    r.Check(repl.RunUntilIdle().ok(), "initial sync completes");
  }
  r.Check(repl.DivergentCountVs(kSiteA, kSiteB) == 0,
          "sites converge after the initial sync");

  const hl::SimTime epoch = clock.Now();
  hl::SimTime next_pump = kPumpInterval;
  uint64_t event_index = 0;
  bool killed = false;
  bool recovered = false;
  hl::SimTime killed_at = 0;
  hl::SimTime recovered_at = 0;
  uint64_t shipped_before_kill = 0;

  auto pump_round = [&] {
    if (stager.PendingRequests() > 0) {
      Span span(trace, kStagerPump);
      r.Op(stager.Pump());
    }
    if (killed && !recovered) {
      Span span(trace, kReplicator);
      r.Op(repl.AntiEntropyRound(kSiteB, kSiteA, kAntiEntropyBatch).status());
      if (repl.DivergentCountVs(kSiteB, kSiteA) == 0) {
        recovered = true;
        recovered_at = clock.Now();
        repl.SetSiteQuarantined(kSiteA, false);
      }
    }
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
    event_index++;
    if (!killed && event_index == kill_at_event) {
      Span span(trace, kSiteKill);
      r.Check(KillSite(site_a.get()).ok(), "site kill");
      repl.SetSiteQuarantined(kSiteA, true);
      killed = true;
      killed_at = clock.Now();
      shipped_before_kill = repl.stats().bytes_shipped;
    }
    while (next_pump <= ev->at) {
      if (epoch + next_pump > clock.Now()) {
        clock.AdvanceTo(epoch + next_pump);
      }
      pump_round();
      next_pump += kPumpInterval;
    }
    const hl::SimTime due = epoch + ev->at;
    if (due > clock.Now()) {
      clock.AdvanceTo(due);
    }
    // Every recall targets its home shard at site A; routing (and, during
    // the outage, failover) is the stager's problem.
    const uint32_t tseg = pool[ev->file % pool.size()];
    const std::string& tenant = tenants[ev->tenant % tenants.size()];
    r.attempted++;
    auto submit = [&] {
      Span span(trace, kStagerSubmit);
      return stager.SubmitFetch(tenant, kShardA, tseg);
    };
    hl::Status s = submit();
    while (s.code() == hl::ErrorCode::kBusy) {
      pump_round();
      s = submit();
    }
    r.Op(s);
  }
  while (stager.PendingRequests() > 0 || (killed && !recovered)) {
    pump_round();
  }
  {
    Span span(trace, kStagerPump);
    r.Op(stager.RunUntilIdle());
  }
  // The drill ends with a full anti-entropy comparison and a scrub.
  hl::Result<hl::SiteReplicator::AntiEntropyStats> post = [&] {
    Span span(trace, kReplicator);
    return repl.AntiEntropyRound(kSiteB, kSiteA);
  }();
  hl::Result<hl::Scrubber::Report> scrub = [&] {
    Span span(trace, kHlScrub);
    return site_a->Internals().scrubber.ScrubAll();
  }();
  r.run_s = SecondsSince(run_start);

  // --- Simulated-time metrics ---------------------------------------------
  hl::MetricsSnapshot st;
  hl::MetricsSnapshot rs;
  std::vector<hl::MetricsSnapshot> sites;
  {
    Span span(trace, kHlMetrics);
    st = stager.Metrics();
    rs = repl.Metrics();
    sites.push_back(site_a->Metrics());
    sites.push_back(site_b->Metrics());
  }
  const uint64_t admitted = st.Value("stager.demand_admitted");
  const uint64_t served = st.Value("stager.demand_served");
  const uint64_t fetch_errors = st.Value("stager.fetch_errors");
  const uint32_t unrecoverable = scrub.ok() ? scrub->unrecoverable : 0;
  r.failed += admitted - std::min<uint64_t>(admitted, served);
  r.failed += unrecoverable;
  const hl::Histogram::Data delay = FindHist(st, "stager.fetch_delay_us");
  const double mb = 1024.0 * 1024.0;
  r.Sim("sim_recall_p50_ms", PercentileMs(delay, 0.50), "ms");
  r.Sim("sim_recall_p99_ms", PercentileMs(delay, 0.99), "ms");
  r.Sim("sim_recall_samples", static_cast<double>(delay.count), "count");
  r.Sim("sim_recovery_s",
        recovered ? static_cast<double>(recovered_at - killed_at) /
                        hl::kUsPerSec
                  : -1.0,
        "s");
  r.Sim("federation.replicator.divergent_ratio",
        Ratio(static_cast<double>(rs.Value("site.antientropy_divergent")),
              static_cast<double>(rs.Value("site.antientropy_compared"))),
        "ratio");
  r.Sim("federation.replicator.mb_shipped",
        static_cast<double>(rs.Value("site.bytes_shipped")) / mb, "MB");
  r.Sim("federation.replicator.mb_reshipped",
        static_cast<double>(repl.stats().bytes_shipped - shipped_before_kill) /
            mb,
        "MB");
  r.Sim("federation.replicator.ship_p99_ms",
        PercentileMs(FindHist(rs, "site.ship_us"), 0.99), "ms");
  r.Sim("federation.stager.failover_fetches",
        static_cast<double>(st.Value("stager.failover_fetches")), "count");
  r.Sim("highlight.scrub.segments",
        static_cast<double>(scrub.ok() ? scrub->scanned : 0), "count");
  r.Sim("highlight.io.retries",
        static_cast<double>(sites[0].Value("io.retries") +
                            sites[1].Value("io.retries")),
        "count");
  r.Sim("federation.stager.fetch_errors", static_cast<double>(fetch_errors),
        "count");
  r.Sim("federation.replicator.ship_failures",
        static_cast<double>(rs.Value("site.ship_failures")), "count");
  // Each shipped image is checksummed on arrival and again when installed.
  r.crc_bytes = CrcBytesOf(sites[0], kPoolSegmentBytes) -
                CrcBytesOf(before_a, kPoolSegmentBytes) +
                CrcBytesOf(sites[1], kPoolSegmentBytes) -
                CrcBytesOf(before_b, kPoolSegmentBytes) +
                2 * repl.stats().segments_shipped * kPoolSegmentBytes;
  r.FoldSimMetrics();
  r.FoldSnapshot("stager", st);
  r.FoldSnapshot("replicator", rs);
  r.FoldSnapshot("siteA", sites[0]);
  r.FoldSnapshot("siteB", sites[1]);

  // --- Correctness gate ---------------------------------------------------
  r.Check(admitted == served && fetch_errors == 0,
          "every admitted recall is served");
  r.Check(killed && recovered, "site A was killed and rebuilt");
  r.Check(post.ok() && post->divergent == 0,
          "no divergence after the rebuild");
  r.Check(scrub.ok() && unrecoverable == 0,
          "no unrecoverable segment after the rebuild");
  const bool readback_ok =
      ReadBackPool(*site_a, kSitePool.files, key_base, trace, r);
  r.Check(readback_ok, "rebuilt site's files read back byte-equal");
  r.Check(hub.spans().quiescent(), "engine span context is quiescent");
  return r;
}

}  // namespace hlbench
