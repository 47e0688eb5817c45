// Per-volume health state machine.
//
// Every tertiary volume starts healthy. Consecutive failures demote it to
// suspect and then quarantined; consecutive successes heal a suspect back
// to healthy. Quarantine is sticky — only an explicit ReinstateVolume
// (operator action) clears it. The I/O server and the scrubber record
// outcomes, and consumers steer around sick volumes: quarantined volumes
// are excluded from migration target selection and ordered last among
// demand-fetch source candidates (still tried as a last resort — refusing
// the only surviving copy would turn a scare into a loss).

#ifndef HIGHLIGHT_UTIL_HEALTH_H_
#define HIGHLIGHT_UTIL_HEALTH_H_

#include <cstdint>
#include <map>
#include <set>

#include "util/metrics.h"
#include "util/span.h"

namespace hl {

enum class HealthState : uint8_t { kHealthy, kSuspect, kQuarantined };

const char* HealthStateName(HealthState state);

struct HealthPolicy {
  int suspect_after = 2;     // Consecutive failures before healthy -> suspect.
  int quarantine_after = 5;  // Consecutive failures before -> quarantined.
  int heal_after = 2;        // Consecutive successes before suspect -> healthy.
};

class HealthRegistry {
 public:
  explicit HealthRegistry(HealthPolicy policy = {}) : policy_(policy) {}
  HealthRegistry(const HealthRegistry&) = delete;
  HealthRegistry& operator=(const HealthRegistry&) = delete;

  const HealthPolicy& policy() const { return policy_; }

  struct Entry {
    HealthState state = HealthState::kHealthy;
    int consecutive_failures = 0;
    int consecutive_successes = 0;
    uint64_t failures_total = 0;
    uint64_t successes_total = 0;
  };

  // Unknown volumes read as healthy.
  HealthState VolumeState(uint32_t volume) const;
  void RecordVolumeFailure(uint32_t volume);
  void RecordVolumeSuccess(uint32_t volume);
  // Operator override: back to healthy, counters cleared.
  void ReinstateVolume(uint32_t volume);
  const std::set<uint32_t>& QuarantinedVolumes() const {
    return quarantined_volumes_;
  }

  uint32_t CountInState(HealthState state) const;
  // Every volume with a recorded outcome, by volume number.
  const std::map<uint32_t, Entry>& Entries() const { return entries_; }

  struct Stats {
    Counter failures_recorded;
    Counter successes_recorded;
    Counter suspect_transitions;
    Counter quarantines;
    Counter reinstatements;
  };
  const Stats& stats() const { return stats_; }

  // Binds health.* counters into `registry`.
  void AttachMetrics(MetricsRegistry* registry);
  // Records a health_change instant (volume, state) on the "health" track
  // at every state transition. Null disables.
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

 private:
  void Transition(uint32_t volume, Entry& e, HealthState next);

  HealthPolicy policy_;
  std::map<uint32_t, Entry> entries_;
  std::set<uint32_t> quarantined_volumes_;
  Stats stats_;
  SpanTracer* spans_ = nullptr;
};

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_HEALTH_H_
