#include "util/fault_injector.h"

#include <algorithm>
#include <cmath>

namespace hl {
namespace {

// FNV-1a, so a channel's substream depends only on its name — not on the
// order devices were constructed in.
uint64_t HashName(const std::string& name) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

const char* FaultOutcomeName(FaultOutcome outcome) {
  switch (outcome) {
    case FaultOutcome::kNone:
      return "none";
    case FaultOutcome::kTransient:
      return "transient";
    case FaultOutcome::kLoadTimeout:
      return "load_timeout";
    case FaultOutcome::kMediaError:
      return "media_error";
    case FaultOutcome::kDeviceDown:
      return "device_down";
  }
  return "unknown";
}

SimTime RetryPolicy::BackoffFor(int retry) const {
  if (retry <= 0) {
    return 0;
  }
  double delay = static_cast<double>(backoff_us) *
                 std::pow(backoff_multiplier, retry - 1);
  double cap = static_cast<double>(max_backoff_us);
  return static_cast<SimTime>(std::min(delay, cap));
}

FaultChannel::FaultChannel(FaultInjector* parent, std::string name,
                           uint32_t id, uint64_t seed)
    : parent_(parent),
      name_(std::move(name)),
      id_(id),
      rng_(seed ^ HashName(name_)) {}

void FaultChannel::FailBetween(SimTime from_us, SimTime until_us) {
  window_from_ = from_us;
  window_until_ = until_us;
}

void FaultChannel::AddLatentError(uint64_t offset, uint64_t len) {
  if (len == 0) {
    return;
  }
  latent_[offset] = std::max(latent_[offset], len);
}

bool FaultChannel::dead() const {
  return kill_at_ != kNeverKilled && parent_->clock_->Now() >= kill_at_;
}

bool FaultChannel::ScriptedFailureActive() const {
  if (dead() || fail_next_ > 0) {
    return true;
  }
  const SimTime now = parent_->clock_->Now();
  return window_until_ > window_from_ && now >= window_from_ &&
         now < window_until_;
}

bool FaultChannel::IntersectsLatent(uint64_t offset, uint64_t len) const {
  if (latent_.empty() || len == 0) {
    return false;
  }
  // First extent starting at or after `offset`, plus the one before it.
  auto it = latent_.upper_bound(offset);
  if (it != latent_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second > offset) {
      return true;
    }
  }
  return it != latent_.end() && it->first < offset + len;
}

FaultOutcome FaultChannel::Emit(FaultOutcome outcome) {
  FaultInjector::Stats& s = parent_->stats_;
  switch (outcome) {
    case FaultOutcome::kTransient:
      ++s.transients;
      break;
    case FaultOutcome::kLoadTimeout:
      ++s.load_timeouts;
      break;
    case FaultOutcome::kMediaError:
      ++s.media_errors;
      break;
    case FaultOutcome::kDeviceDown:
      ++s.device_down_ops;
      break;
    case FaultOutcome::kNone:
      return outcome;
  }
  RecordInstant(parent_->spans_, "fault_injected", "faults", "channel", id_,
                "outcome", static_cast<uint64_t>(outcome));
  return outcome;
}

FaultOutcome FaultChannel::Decide(FaultOp op, uint64_t offset, uint64_t len) {
  if (dead()) {
    return Emit(FaultOutcome::kDeviceDown);
  }
  if (op == FaultOp::kLoad) {
    // Robot loads only fail probabilistically; scripted one-shot failures
    // keep their legacy per-transfer meaning.
    if (profile_.load_timeout_p > 0 && rng_.Chance(profile_.load_timeout_p)) {
      return Emit(FaultOutcome::kLoadTimeout);
    }
    return FaultOutcome::kNone;
  }
  if (fail_next_ > 0) {
    --fail_next_;
    return Emit(FaultOutcome::kTransient);
  }
  const SimTime now = parent_->clock_->Now();
  if (window_until_ > window_from_ && now >= window_from_ &&
      now < window_until_) {
    return Emit(FaultOutcome::kTransient);
  }
  if (op == FaultOp::kRead && IntersectsLatent(offset, len)) {
    return Emit(FaultOutcome::kMediaError);
  }
  const double p = op == FaultOp::kRead ? profile_.read_transient_p
                                        : profile_.write_transient_p;
  if (p > 0 && rng_.Chance(p)) {
    return Emit(FaultOutcome::kTransient);
  }
  return FaultOutcome::kNone;
}

bool FaultChannel::MaybeCorruptRead(std::span<uint8_t> buf, uint64_t offset) {
  (void)offset;
  if (buf.empty() || profile_.read_corrupt_p <= 0 ||
      !rng_.Chance(profile_.read_corrupt_p)) {
    return false;
  }
  // A handful of independent single-bit flips across the buffer.
  const int flips = 1 + static_cast<int>(rng_.Below(8));
  for (int i = 0; i < flips; ++i) {
    buf[rng_.Below(buf.size())] ^= static_cast<uint8_t>(1u << rng_.Below(8));
  }
  ++parent_->stats_.corruptions;
  RecordInstant(parent_->spans_, "fault_injected", "faults", "channel", id_,
                "outcome", static_cast<uint64_t>(FaultOutcome::kMediaError));
  return true;
}

void FaultChannel::NoteWrite(uint64_t offset, uint64_t len) {
  if (len == 0) {
    return;
  }
  // Overwriting a poisoned range heals it (the drive remaps the sector).
  if (!latent_.empty()) {
    auto it = latent_.upper_bound(offset);
    if (it != latent_.begin()) {
      --it;
    }
    while (it != latent_.end() && it->first < offset + len) {
      if (it->first + it->second > offset) {
        it = latent_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (profile_.write_latent_p > 0 && rng_.Chance(profile_.write_latent_p)) {
    const uint64_t at = offset + rng_.Below(len);
    AddLatentError(at, std::min<uint64_t>(512, offset + len - at));
    ++parent_->stats_.latent_planted;
  }
}

FaultInjector::FaultInjector(SimClock* clock, uint64_t seed)
    : clock_(clock), seed_(seed) {}

FaultChannel* FaultInjector::Channel(const std::string& name) {
  auto it = channels_.find(name);
  if (it == channels_.end()) {
    it = channels_
             .emplace(name, std::make_unique<FaultChannel>(this, name,
                                                           next_id_++, seed_))
             .first;
  }
  return it->second.get();
}

FaultChannel* FaultInjector::Find(const std::string& name) {
  auto it = channels_.find(name);
  return it == channels_.end() ? nullptr : it->second.get();
}

int FaultInjector::SetProfile(const std::string& pattern,
                              const FaultProfile& profile) {
  const bool prefix = !pattern.empty() && pattern.back() == '*';
  const std::string stem = prefix ? pattern.substr(0, pattern.size() - 1)
                                  : pattern;
  int touched = 0;
  for (auto& [name, channel] : channels_) {
    const bool match = prefix ? name.compare(0, stem.size(), stem) == 0
                              : name == stem;
    if (match) {
      channel->set_profile(profile);
      ++touched;
    }
  }
  return touched;
}

std::vector<std::string> FaultInjector::ChannelNames() const {
  std::vector<std::string> names;
  names.reserve(channels_.size());
  for (const auto& [name, channel] : channels_) {
    names.push_back(name);
  }
  return names;
}

void FaultInjector::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  stats_.transients.BindTo(*registry, "fault.transients");
  stats_.load_timeouts.BindTo(*registry, "fault.load_timeouts");
  stats_.media_errors.BindTo(*registry, "fault.media_errors");
  stats_.device_down_ops.BindTo(*registry, "fault.device_down_ops");
  stats_.corruptions.BindTo(*registry, "fault.corruptions");
  stats_.latent_planted.BindTo(*registry, "fault.latent_planted");
}

}  // namespace hl
