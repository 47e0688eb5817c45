// Per-device / per-volume health state machine.
//
// Every entity (a disk, a jukebox drive, a tertiary volume) starts healthy.
// Consecutive failures demote it to suspect and then quarantined; consecutive
// successes heal a suspect back to healthy. Quarantine is sticky — only an
// explicit Reinstate (operator action) clears it. The I/O server records
// outcomes as it retries, and consumers steer around sick entities:
// quarantined volumes are excluded from migration target selection and
// ordered last among demand-fetch source candidates (still tried as a last
// resort — refusing the only surviving copy would turn a scare into a loss).

#ifndef HIGHLIGHT_UTIL_HEALTH_H_
#define HIGHLIGHT_UTIL_HEALTH_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

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

  // Unknown entities read as healthy.
  HealthState StateOf(const std::string& entity) const;
  const Entry* Find(const std::string& entity) const;

  void RecordFailure(const std::string& entity);
  void RecordSuccess(const std::string& entity);
  // Operator override: back to healthy, counters cleared.
  void Reinstate(const std::string& entity);

  // Tertiary volumes are the entities most of the system steers by; they
  // are keyed "volume.<N>" so callers can use the volume number directly.
  static std::string VolumeKey(uint32_t volume);
  HealthState VolumeState(uint32_t volume) const;
  void RecordVolumeFailure(uint32_t volume);
  void RecordVolumeSuccess(uint32_t volume);
  void ReinstateVolume(uint32_t volume);
  const std::set<uint32_t>& QuarantinedVolumes() const {
    return quarantined_volumes_;
  }

  uint32_t CountInState(HealthState state) const;
  // Every tracked entity, name-ordered, for inspection dumps.
  std::vector<std::pair<std::string, Entry>> Entries() const;

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
  void Transition(const std::string& entity, Entry& e, HealthState next);

  HealthPolicy policy_;
  std::map<std::string, Entry> entries_;
  std::set<uint32_t> quarantined_volumes_;
  Stats stats_;
  SpanTracer* spans_ = nullptr;
};

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_HEALTH_H_
