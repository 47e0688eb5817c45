// Scriptable, seeded fault injection for the simulated storage hierarchy.
//
// Every device (disk, jukebox drive, tertiary volume) owns a FaultChannel
// obtained from the deployment-wide FaultInjector. A channel decides, per
// operation, whether the op fails — from a deterministic script (FailNextOps,
// FailBetween, KillAt, AddLatentError) or from a probabilistic FaultProfile
// rolled on a per-channel seeded Rng. Devices are responsible for charging
// the usual service time on an injected failure (a jam still costs the seek)
// and for surfacing the fault as a kIoError Status.
//
// Determinism: each channel's Rng is seeded from the injector seed and the
// channel name (FNV-1a), so adding channels or reordering device creation
// does not perturb other channels' decisions, and a zero FaultProfile never
// consumes randomness — a run with no profiles set is bit-identical to a run
// without the injector attached.

#ifndef HIGHLIGHT_UTIL_FAULT_INJECTOR_H_
#define HIGHLIGHT_UTIL_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/sim_clock.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/span.h"

namespace hl {

enum class FaultOp : uint8_t { kRead, kWrite, kLoad };

enum class FaultOutcome : uint8_t {
  kNone,         // Operation proceeds normally.
  kTransient,    // One-shot failure; a retry may succeed.
  kLoadTimeout,  // Robot could not seat the medium (FaultOp::kLoad only).
  kMediaError,   // Latent sector error: persistent until overwritten.
  kDeviceDown,   // Device killed (KillAt); every op fails from then on.
};

const char* FaultOutcomeName(FaultOutcome outcome);

// Per-operation fault probabilities. All default to zero = never fire.
struct FaultProfile {
  double read_transient_p = 0.0;   // Read fails, retry may succeed.
  double write_transient_p = 0.0;  // Write fails, retry may succeed.
  double load_timeout_p = 0.0;     // Robot load attempt times out.
  double read_corrupt_p = 0.0;     // Read succeeds but bits flip in the buffer.
  double write_latent_p = 0.0;     // Write plants a latent error in the range.
};

// Bounded retry with exponential backoff, in simulated time. Used by the
// demand-fetch, copy-out and scrub paths and the site replicator's WAN
// transfer; the backoff is charged to the sim clock (sync paths) or folded
// into the earliest-start of the rescheduled op (write-behind pipeline).
struct RetryPolicy {
  int max_attempts = 3;                 // Total tries, first attempt included.
  SimTime backoff_us = 10'000;          // Delay before the first retry.
  double backoff_multiplier = 4.0;      // Growth per subsequent retry.
  SimTime max_backoff_us = 10'000'000;  // Cap on any single delay.

  // Delay before retry number `retry` (1-based); 0 for retry <= 0.
  SimTime BackoffFor(int retry) const;
};

class FaultInjector;

// Per-device fault decision point. Obtained from FaultInjector::Channel();
// pointers are stable for the life of the injector.
class FaultChannel {
 public:
  FaultChannel(FaultInjector* parent, std::string name, uint32_t id,
               uint64_t seed);

  const std::string& name() const { return name_; }
  uint32_t id() const { return id_; }

  void set_profile(const FaultProfile& profile) { profile_ = profile; }
  const FaultProfile& profile() const { return profile_; }

  // Scripted faults. FailNextOps makes the next `n` read/write decisions
  // fail (the legacy device API forwards here); FailBetween fails every
  // read/write in [from_us, until_us); KillAt takes the device down for
  // good at time t; AddLatentError poisons a byte range until overwritten.
  void FailNextOps(int n) { fail_next_ += n; }
  void FailBetween(SimTime from_us, SimTime until_us);
  void KillAt(SimTime t) { kill_at_ = t; }
  void AddLatentError(uint64_t offset, uint64_t len);
  size_t LatentErrorCount() const { return latent_.size(); }
  bool dead() const;
  // True while a *scripted* failure is pending or in force (FailNextOps
  // budget, an active FailBetween window, or a kill). A pure peek: consults
  // no randomness and consumes nothing, so reachability probes (is this WAN
  // link partitioned right now?) never perturb the fault stream.
  bool ScriptedFailureActive() const;

  // Decision point, called by the device once per operation with the byte
  // range involved. Non-kNone outcomes are counted and traced.
  FaultOutcome Decide(FaultOp op, uint64_t offset, uint64_t len);

  // Post-read hook: possibly flip bits in the fetched buffer
  // (read_corrupt_p). Returns true when the buffer was corrupted.
  bool MaybeCorruptRead(std::span<uint8_t> buf, uint64_t offset);

  // Post-write hook: clears latent errors overlapping the overwritten range
  // and may plant a fresh one (write_latent_p).
  void NoteWrite(uint64_t offset, uint64_t len);

 private:
  bool IntersectsLatent(uint64_t offset, uint64_t len) const;
  FaultOutcome Emit(FaultOutcome outcome);

  FaultInjector* parent_;
  std::string name_;
  uint32_t id_;
  Rng rng_;
  FaultProfile profile_;
  int fail_next_ = 0;
  SimTime window_from_ = 0;
  SimTime window_until_ = 0;  // Empty window when until <= from.
  SimTime kill_at_ = kNeverKilled;
  std::map<uint64_t, uint64_t> latent_;  // offset -> len, non-overlapping.

  static constexpr SimTime kNeverKilled = ~static_cast<SimTime>(0);
};

// Deployment-wide registry of fault channels, one per device. Created once
// per simulated machine; survives crash/remount cycles (the hardware keeps
// its failure modes across a reboot).
class FaultInjector {
 public:
  explicit FaultInjector(SimClock* clock, uint64_t seed = 0xFA17'FA17ull);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // The channel named `name`, created on first use.
  FaultChannel* Channel(const std::string& name);
  // Lookup without creation; nullptr when absent.
  FaultChannel* Find(const std::string& name);

  // Applies `profile` to every existing channel matching `pattern` — an
  // exact name, or a prefix match when the pattern ends in '*'. Returns the
  // number of channels touched.
  int SetProfile(const std::string& pattern, const FaultProfile& profile);

  std::vector<std::string> ChannelNames() const;
  SimClock* clock() const { return clock_; }

  struct Stats {
    Counter transients;       // Injected one-shot read/write failures.
    Counter load_timeouts;    // Robot load attempts that timed out.
    Counter media_errors;     // Latent-sector reads surfaced.
    Counter device_down_ops;  // Ops refused by a killed device.
    Counter corruptions;      // Read buffers bit-flipped.
    Counter latent_planted;   // Latent errors planted by faulty writes.
  };
  const Stats& stats() const { return stats_; }

  // Binds fault.* counters into `registry`.
  void AttachMetrics(MetricsRegistry* registry);
  // Records a fault_injected instant (channel, outcome) on the "faults"
  // track for every injected fault. Null disables.
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

 private:
  friend class FaultChannel;

  SimClock* clock_;
  uint64_t seed_;
  uint32_t next_id_ = 0;
  std::map<std::string, std::unique_ptr<FaultChannel>> channels_;
  Stats stats_;
  SpanTracer* spans_ = nullptr;
};

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_FAULT_INJECTOR_H_
