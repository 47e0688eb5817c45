#include "util/health.h"

namespace hl {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kSuspect:
      return "suspect";
    case HealthState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

HealthState HealthRegistry::VolumeState(uint32_t volume) const {
  auto it = entries_.find(volume);
  return it == entries_.end() ? HealthState::kHealthy : it->second.state;
}

void HealthRegistry::Transition(uint32_t volume, Entry& e, HealthState next) {
  if (e.state == next) {
    return;
  }
  e.state = next;
  if (next == HealthState::kSuspect) {
    ++stats_.suspect_transitions;
  } else if (next == HealthState::kQuarantined) {
    ++stats_.quarantines;
  }
  if (next == HealthState::kQuarantined) {
    quarantined_volumes_.insert(volume);
  } else {
    quarantined_volumes_.erase(volume);
  }
  RecordInstant(spans_, "health_change", "health", "volume", volume, "state",
                static_cast<uint64_t>(next));
}

void HealthRegistry::RecordVolumeFailure(uint32_t volume) {
  Entry& e = entries_[volume];
  ++e.failures_total;
  ++e.consecutive_failures;
  e.consecutive_successes = 0;
  ++stats_.failures_recorded;
  if (e.state == HealthState::kHealthy &&
      e.consecutive_failures >= policy_.suspect_after) {
    Transition(volume, e, HealthState::kSuspect);
  }
  if (e.state == HealthState::kSuspect &&
      e.consecutive_failures >= policy_.quarantine_after) {
    Transition(volume, e, HealthState::kQuarantined);
  }
}

void HealthRegistry::RecordVolumeSuccess(uint32_t volume) {
  Entry& e = entries_[volume];
  ++e.successes_total;
  ++e.consecutive_successes;
  e.consecutive_failures = 0;
  ++stats_.successes_recorded;
  if (e.state == HealthState::kSuspect &&
      e.consecutive_successes >= policy_.heal_after) {
    Transition(volume, e, HealthState::kHealthy);
  }
  // Quarantine is sticky: only ReinstateVolume clears it.
}

void HealthRegistry::ReinstateVolume(uint32_t volume) {
  auto it = entries_.find(volume);
  if (it == entries_.end()) {
    return;
  }
  Entry& e = it->second;
  if (e.state != HealthState::kHealthy) {
    ++stats_.reinstatements;
    Transition(volume, e, HealthState::kHealthy);
  }
  e.consecutive_failures = 0;
  e.consecutive_successes = 0;
}

uint32_t HealthRegistry::CountInState(HealthState state) const {
  uint32_t n = 0;
  for (const auto& [volume, e] : entries_) {
    if (e.state == state) {
      ++n;
    }
  }
  return n;
}

void HealthRegistry::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  stats_.failures_recorded.BindTo(*registry, "health.failures_recorded");
  stats_.successes_recorded.BindTo(*registry, "health.successes_recorded");
  stats_.suspect_transitions.BindTo(*registry, "health.suspect_transitions");
  stats_.quarantines.BindTo(*registry, "health.quarantines");
  stats_.reinstatements.BindTo(*registry, "health.reinstatements");
}

}  // namespace hl
