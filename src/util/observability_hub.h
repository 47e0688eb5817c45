// ObservabilityHub: one observability plane over a federation.
//
// A federated deployment is N shards and M sites, each with its own
// MetricsRegistry, SpanTracer and TimeSeriesSampler — useful per
// deployment, useless for explaining a cross-site p99: the stager queue
// wait lives in one registry, the WAN failover in another, and no span tree
// connects them. The hub closes that gap three ways:
//
//  1. It owns a *core* SpanTracer that deployments share through
//     track-prefix views (SpanTracer's delegate constructor): every shard
//     and site traces into one tree, so a demand fetch that fails over to a
//     dead site's peer is a single causal span tree from stager admission
//     to peer install, with per-deployment timeline lanes falling out of
//     the prefixed track names.
//  2. It registers the per-deployment surfaces and emits one namespaced
//     metrics snapshot ("shard0.stager...", "siteA.wan...") and one merged
//     Perfetto timeline (core spans + hub counters + each deployment's own
//     tracer/sampler as separate processes).
//  3. It watches SLOs over its own time series: each registered rule is
//     evaluated once per cadence sample, breach/clear transitions are
//     recorded as slo_breach / slo_clear instants on the core tracer's
//     "slo" track at exact sim times, and in-breach time accrues into
//     slo.<name>.breach_us / breach_seconds metrics.
//
// Like every observability surface here, the hub only *reads* the clock:
// bench tables are bit-identical with the hub installed or absent.

#ifndef HIGHLIGHT_UTIL_OBSERVABILITY_HUB_H_
#define HIGHLIGHT_UTIL_OBSERVABILITY_HUB_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_clock.h"
#include "util/metrics.h"
#include "util/span.h"
#include "util/timeseries.h"

namespace hl {

// A threshold watch over one hub time series. `name` keys the slo.* metric
// rows; `series` names the hub series (AddSeries) the rule evaluates.
struct SloRule {
  std::string name;
  std::string series;
  int64_t threshold = 0;
  bool breach_above = true;  // Breach when value > threshold (else <).
};

class ObservabilityHub {
 public:
  // Samples the hub's own series once per sim-second.
  explicit ObservabilityHub(SimClock* clock);
  ~ObservabilityHub();
  ObservabilityHub(const ObservabilityHub&) = delete;
  ObservabilityHub& operator=(const ObservabilityHub&) = delete;

  // The core tracer deployments share through track-prefix views
  // (HighLightConfig::Builder::SharedSpans, StagerScheduler::SetSpans...).
  SpanTracer& spans() { return spans_; }
  const SpanTracer& spans() const { return spans_; }
  SpanTracer& trace() { return spans_; }  // hlbench only.
  MetricsRegistry& metrics() { return metrics_; }
  TimeSeriesSampler& timeseries() { return sampler_; }
  const TimeSeriesSampler& timeseries() const { return sampler_; }

  // Registers one deployment's observability surfaces under `label`
  // ("shard0", "siteA", "stager"). Any pointer may be null; the hub only
  // reads `sampler` (the deployment's own tick hook, installed by
  // HighLightFs::Create, polls it). Registration order is the namespacing
  // order in MergedSnapshot and the process order in MergedTimelineJson,
  // so keep it deterministic.
  void Register(std::string label, const MetricsRegistry* metrics,
                const SpanTracer* spans, const TimeSeriesSampler* sampler);
  // hlbench only: the retired event-ring slot, ignored.
  void Register(std::string label, const MetricsRegistry* metrics,
                const SpanTracer* /*ring*/, const SpanTracer* spans,
                TimeSeriesSampler* sampler) {
    Register(std::move(label), metrics, spans, sampler);
  }

  // Adds a probe to the hub's own sampler (federation-level series the SLO
  // watcher can evaluate: "stager.queue_depth", "wan.inflight_bytes", ...).
  void AddSeries(std::string name, TimeSeriesSampler::Probe probe);

  // Registers an SLO rule; returns its index (the `rule` argument of the
  // slo_breach / slo_clear instants). Binds slo.<name>.breaches,
  // slo.<name>.breach_us counters and a slo.<name>.breach_seconds gauge
  // into the hub registry.
  size_t AddSlo(SloRule rule);

  // Registers the hub's tick hook on the SimClock: each tick polls the
  // hub's own sampler, then the SLO watcher. The clock supports any number
  // of hooks, so this composes with the per-deployment hooks
  // HighLightFs::Create installs.
  void InstallTickHook();

  // The tick-hook body; callable directly in tests.
  void Poll(SimTime now);

  // One snapshot spanning the federation: the hub's own rows (slo.*) as-is
  // plus every deployment's rows prefixed "<label>.".
  MetricsSnapshot MergedSnapshot() const;

  // One Perfetto trace document: the core span tree + hub counter series as
  // process 1 ("federation"), then one process per registered deployment
  // that brought its own tracer (not a view of the core) or sampler.
  std::string MergedTimelineJson() const;

  size_t slo_count() const { return slos_.size(); }
  bool SloInBreach(size_t index) const {
    return index < slos_.size() && slos_[index].in_breach;
  }

 private:
  struct Deployment {
    std::string label;
    const MetricsRegistry* metrics = nullptr;
    const SpanTracer* spans = nullptr;
    const TimeSeriesSampler* sampler = nullptr;
  };
  struct SloState {
    SloRule rule;
    // The rule's series in the hub sampler, resolved at the first sample
    // that finds it there.
    size_t series = TimeSeriesSampler::kNoSeries;
    bool in_breach = false;
    Counter breaches;
    Counter breach_us;
    Gauge breach_seconds;
  };

  void EvaluateSlos();

  SimClock* clock_;
  MetricsRegistry metrics_;
  SpanTracer spans_;
  TimeSeriesSampler sampler_;
  std::vector<Deployment> deployments_;
  std::vector<SloState> slos_;
  bool hook_installed_ = false;
  SimClock::TickHookId hook_id_ = 0;
};

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_OBSERVABILITY_HUB_H_
