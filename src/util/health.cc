#include "util/health.h"

namespace hl {
namespace {

constexpr char kVolumePrefix[] = "volume.";

// "volume.<N>" -> N; false for every other entity key.
bool ParseVolumeKey(const std::string& entity, uint32_t* volume) {
  const size_t prefix_len = sizeof(kVolumePrefix) - 1;
  if (entity.compare(0, prefix_len, kVolumePrefix) != 0 ||
      entity.size() == prefix_len) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix_len; i < entity.size(); ++i) {
    if (entity[i] < '0' || entity[i] > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(entity[i] - '0');
  }
  *volume = static_cast<uint32_t>(v);
  return true;
}

}  // namespace

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

HealthState HealthRegistry::StateOf(const std::string& entity) const {
  auto it = entries_.find(entity);
  return it == entries_.end() ? HealthState::kHealthy : it->second.state;
}

const HealthRegistry::Entry* HealthRegistry::Find(
    const std::string& entity) const {
  auto it = entries_.find(entity);
  return it == entries_.end() ? nullptr : &it->second;
}

void HealthRegistry::Transition(const std::string& entity, Entry& e,
                                HealthState next) {
  if (e.state == next) {
    return;
  }
  e.state = next;
  if (next == HealthState::kSuspect) {
    ++stats_.suspect_transitions;
  } else if (next == HealthState::kQuarantined) {
    ++stats_.quarantines;
  }
  uint32_t volume = 0;
  const bool is_volume = ParseVolumeKey(entity, &volume);
  if (is_volume) {
    if (next == HealthState::kQuarantined) {
      quarantined_volumes_.insert(volume);
    } else {
      quarantined_volumes_.erase(volume);
    }
  }
  RecordInstant(spans_, "health_change", "health", "volume",
                is_volume ? volume : ~static_cast<uint64_t>(0), "state",
                static_cast<uint64_t>(next));
}

void HealthRegistry::RecordFailure(const std::string& entity) {
  Entry& e = entries_[entity];
  ++e.failures_total;
  ++e.consecutive_failures;
  e.consecutive_successes = 0;
  ++stats_.failures_recorded;
  if (e.state == HealthState::kHealthy &&
      e.consecutive_failures >= policy_.suspect_after) {
    Transition(entity, e, HealthState::kSuspect);
  }
  if (e.state == HealthState::kSuspect &&
      e.consecutive_failures >= policy_.quarantine_after) {
    Transition(entity, e, HealthState::kQuarantined);
  }
}

void HealthRegistry::RecordSuccess(const std::string& entity) {
  Entry& e = entries_[entity];
  ++e.successes_total;
  ++e.consecutive_successes;
  e.consecutive_failures = 0;
  ++stats_.successes_recorded;
  if (e.state == HealthState::kSuspect &&
      e.consecutive_successes >= policy_.heal_after) {
    Transition(entity, e, HealthState::kHealthy);
  }
  // Quarantine is sticky: only Reinstate clears it.
}

void HealthRegistry::Reinstate(const std::string& entity) {
  auto it = entries_.find(entity);
  if (it == entries_.end()) {
    return;
  }
  Entry& e = it->second;
  if (e.state != HealthState::kHealthy) {
    ++stats_.reinstatements;
    Transition(entity, e, HealthState::kHealthy);
  }
  e.consecutive_failures = 0;
  e.consecutive_successes = 0;
}

std::string HealthRegistry::VolumeKey(uint32_t volume) {
  return kVolumePrefix + std::to_string(volume);
}

HealthState HealthRegistry::VolumeState(uint32_t volume) const {
  return StateOf(VolumeKey(volume));
}

void HealthRegistry::RecordVolumeFailure(uint32_t volume) {
  RecordFailure(VolumeKey(volume));
}

void HealthRegistry::RecordVolumeSuccess(uint32_t volume) {
  RecordSuccess(VolumeKey(volume));
}

void HealthRegistry::ReinstateVolume(uint32_t volume) {
  Reinstate(VolumeKey(volume));
}

uint32_t HealthRegistry::CountInState(HealthState state) const {
  uint32_t n = 0;
  for (const auto& [name, e] : entries_) {
    if (e.state == state) {
      ++n;
    }
  }
  return n;
}

std::vector<std::pair<std::string, HealthRegistry::Entry>>
HealthRegistry::Entries() const {
  return {entries_.begin(), entries_.end()};
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
