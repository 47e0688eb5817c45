#include "util/observability_hub.h"

#include <utility>

namespace hl {

namespace {

constexpr SimTime kSampleCadenceUs = kUsPerSec;
constexpr size_t kSeriesCapacity = 4096;
constexpr size_t kSpanCapacity = 65536;

}  // namespace

ObservabilityHub::ObservabilityHub(SimClock* clock)
    : clock_(clock),
      spans_(clock, kSpanCapacity),
      sampler_(kSampleCadenceUs, kSeriesCapacity) {}

ObservabilityHub::~ObservabilityHub() {
  if (hook_installed_ && clock_ != nullptr) {
    clock_->RemoveTickHook(hook_id_);
  }
}

void ObservabilityHub::Register(std::string label,
                                const MetricsRegistry* metrics,
                                const SpanTracer* spans,
                                const TimeSeriesSampler* sampler) {
  Deployment d;
  d.label = std::move(label);
  d.metrics = metrics;
  d.spans = spans;
  d.sampler = sampler;
  deployments_.push_back(std::move(d));
}

void ObservabilityHub::AddSeries(std::string name,
                                 TimeSeriesSampler::Probe probe) {
  sampler_.AddSeries(std::move(name), std::move(probe));
}

size_t ObservabilityHub::AddSlo(SloRule rule) {
  SloState state;
  state.rule = std::move(rule);
  state.breaches.BindTo(metrics_, "slo." + state.rule.name + ".breaches");
  state.breach_us.BindTo(metrics_, "slo." + state.rule.name + ".breach_us");
  state.breach_seconds.BindTo(metrics_,
                              "slo." + state.rule.name + ".breach_seconds");
  slos_.push_back(std::move(state));
  return slos_.size() - 1;
}

void ObservabilityHub::InstallTickHook() {
  if (clock_ == nullptr) {
    return;
  }
  hook_id_ = clock_->AddTickHook([this](SimTime now) { Poll(now); });
  hook_installed_ = true;
}

void ObservabilityHub::Poll(SimTime now) {
  const uint64_t before = sampler_.samples_taken();
  sampler_.Poll(now);
  if (sampler_.samples_taken() != before) {
    // A new boundary-stamped sample landed: evaluate every SLO against it.
    // Evaluating only at sample instants keeps breach/clear times (and the
    // accrued breach_us) bit-identical across identically seeded runs.
    EvaluateSlos();
  }
}

void ObservabilityHub::EvaluateSlos() {
  for (size_t i = 0; i < slos_.size(); ++i) {
    SloState& s = slos_[i];
    if (s.series == TimeSeriesSampler::kNoSeries) {
      s.series = sampler_.SeriesIndex(s.rule.series);
      if (s.series == TimeSeriesSampler::kNoSeries) {
        continue;
      }
    }
    const auto& points = sampler_.SeriesAt(s.series);
    if (points.empty()) {
      continue;
    }
    const int64_t v = points.back().value;
    const bool breach = s.rule.breach_above ? v > s.rule.threshold
                                            : v < s.rule.threshold;
    if (breach != s.in_breach) {
      s.in_breach = breach;
      spans_.Instant(breach ? "slo_breach" : "slo_clear", "slo", "rule", i,
                     "value", static_cast<uint64_t>(v));
      if (breach) {
        s.breaches++;
      }
    }
    if (s.in_breach) {
      // One cadence interval of breach time per in-breach sample.
      s.breach_us += static_cast<uint64_t>(sampler_.cadence_us());
      s.breach_seconds.Set(
          static_cast<int64_t>(s.breach_us.value() / kUsPerSec));
    }
  }
}

MetricsSnapshot ObservabilityHub::MergedSnapshot() const {
  MetricsSnapshot out = metrics_.Snapshot();
  for (const Deployment& d : deployments_) {
    if (d.metrics == nullptr) {
      continue;
    }
    MetricsSnapshot snap = d.metrics->Snapshot();
    for (auto& [name, value] : snap.counters) {
      out.counters.emplace_back(d.label + "." + name, value);
    }
    for (auto& [name, value] : snap.gauges) {
      out.gauges.emplace_back(d.label + "." + name, value);
    }
    for (auto& [name, value] : snap.histograms) {
      out.histograms.emplace_back(d.label + "." + name, std::move(value));
    }
  }
  return out;
}

std::string ObservabilityHub::MergedTimelineJson() const {
  std::string events;
  AppendPerfettoSpanEvents(spans_, 1, "federation", &events);
  AppendPerfettoCounterEvents(sampler_, 1, &events);
  int pid = 2;
  for (const Deployment& d : deployments_) {
    // A deployment tracing through a view of the core tracer already
    // appears in process 1; only an independent tracer gets its own.
    const bool own_tracer =
        d.spans != nullptr && d.spans->root() != spans_.root();
    const bool own_sampler =
        d.sampler != nullptr && d.sampler->samples_taken() > 0;
    if (!own_tracer && !own_sampler) {
      continue;
    }
    if (own_tracer) {
      AppendPerfettoSpanEvents(*d.spans, pid, d.label, &events);
    } else {
      // Counter-only process still wants a readable name.
      events += "  {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " +
                std::to_string(pid) +
                ", \"tid\": 0, \"args\": {\"name\": \"" +
                JsonEscape(d.label) + "\"}},\n";
    }
    if (own_sampler) {
      AppendPerfettoCounterEvents(*d.sampler, pid, &events);
    }
    ++pid;
  }
  return PerfettoTraceJson(events);
}

}  // namespace hl
