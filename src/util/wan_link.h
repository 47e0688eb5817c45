// WanLink: a simulated wide-area link between two storage sites.
//
// Cross-site volume replication ships whole segment images between
// independent jukebox sites; the link is the only path between them and is
// slower and far less reliable than the local SCSI bus. The model is
// deliberately simple — fixed one-way latency plus size/bandwidth transfer
// time, charged synchronously to the shared SimClock — but it owns its own
// FaultChannel, so links can partition (FailBetween), flap (FailNextOps,
// transient profiles), die (KillAt) and corrupt payloads in flight
// (read_corrupt_p) with the same scripting and seeded determinism as every
// other device in the deployment.
//
// A failed transfer still costs the latency: a partition is discovered by a
// timeout, not for free. In-flight corruption is NOT an error here — the
// payload is delivered with flipped bits and the receiver's CRC32 check is
// what catches it, exactly as on a real WAN.

#ifndef HIGHLIGHT_UTIL_WAN_LINK_H_
#define HIGHLIGHT_UTIL_WAN_LINK_H_

#include <cstdint>
#include <span>
#include <string>

#include "sim/sim_clock.h"
#include "util/fault_injector.h"
#include "util/metrics.h"
#include "util/span.h"
#include "util/status.h"

namespace hl {

struct WanLinkProfile {
  uint64_t bandwidth_bytes_per_sec = 10ull << 20;  // 10 MiB/s.
  SimTime latency_us = 50'000;                     // One-way, 50 ms.
};

class WanLink {
 public:
  WanLink(std::string name, SimClock* clock, WanLinkProfile profile = {})
      : name_(std::move(name)),
        track_("wan." + name_),
        clock_(clock),
        profile_(profile) {}
  WanLink(const WanLink&) = delete;
  WanLink& operator=(const WanLink&) = delete;

  const std::string& name() const { return name_; }
  const WanLinkProfile& profile() const { return profile_; }

  // The link's fault decision point (conventionally channel "wan.<name>").
  void AttachFaults(FaultChannel* channel) { faults_ = channel; }
  FaultChannel* faults() const { return faults_; }

  // Binds the aggregate wan.* counters/histogram into `registry`; several
  // links binding the same registry fold into shared slots (per-link totals
  // stay readable through the accessors below).
  void AttachMetrics(MetricsRegistry* registry);

  // Traces each Transfer as a "wan_transfer" span on track "wan.<name>" —
  // its own lane in a merged federation timeline. The span nests under
  // whatever the caller has open (a site ship, an anti-entropy round), so
  // the WAN hop links into the cross-site causal tree.
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

  // Wire time for one message of `bytes`: latency + bytes / bandwidth.
  SimTime TransferCost(uint64_t bytes) const;

  // True while the link is scripted down (kill or an active partition
  // window). A pure peek — consumes no fault-stream randomness — used by
  // reachability probes before committing a shipment.
  bool Partitioned() const {
    return faults_ != nullptr && faults_->ScriptedFailureActive();
  }

  // Ships one message, charging the transfer cost to the clock. A faulted
  // attempt costs the latency (the timeout) and returns kUnavailable; a
  // successful one may still deliver a corrupted payload (bits flipped in
  // place, counted) for the receiver's checksum to catch.
  Status Transfer(std::span<uint8_t> payload);

  // Per-link lifetime totals (the bound wan.* slots aggregate all links).
  uint64_t transfers() const { return transfers_total_; }
  uint64_t bytes_shipped() const { return bytes_total_; }
  uint64_t failures() const { return failures_total_; }
  uint64_t corrupted_in_flight() const { return corrupted_total_; }
  // Bytes currently on the wire. Nonzero only while a Transfer's clock
  // advance is in progress, which is exactly when tick-hook samplers run —
  // a cadence boundary crossed mid-transfer observes the payload size.
  uint64_t inflight_bytes() const { return inflight_bytes_; }

 private:
  std::string name_;
  std::string track_;  // "wan.<name>": the span track of every transfer.
  SimClock* clock_;
  WanLinkProfile profile_;
  FaultChannel* faults_ = nullptr;
  SpanTracer* spans_ = nullptr;
  uint64_t inflight_bytes_ = 0;

  uint64_t transfers_total_ = 0;
  uint64_t bytes_total_ = 0;
  uint64_t failures_total_ = 0;
  uint64_t corrupted_total_ = 0;

  Counter transfers_;
  Counter bytes_shipped_;
  Counter transfer_failures_;
  Counter corrupted_;
  Histogram transfer_us_;
};

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_WAN_LINK_H_
