#include "util/wan_link.h"

namespace hl {

void WanLink::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  transfers_.BindTo(*registry, "wan.transfers");
  bytes_shipped_.BindTo(*registry, "wan.bytes_shipped");
  transfer_failures_.BindTo(*registry, "wan.transfer_failures");
  corrupted_.BindTo(*registry, "wan.corrupted_in_flight");
  transfer_us_.BindTo(*registry, "wan.transfer_us");
}

SimTime WanLink::TransferCost(uint64_t bytes) const {
  const uint64_t bw = profile_.bandwidth_bytes_per_sec;
  const SimTime wire =
      bw == 0 ? 0 : static_cast<SimTime>((bytes * kUsPerSec + bw - 1) / bw);
  return profile_.latency_us + wire;
}

Status WanLink::Transfer(std::span<uint8_t> payload) {
  SpanScope span(spans_, "wan_transfer", track_);
  span.Annotate("bytes", payload.size());
  if (faults_ != nullptr) {
    const FaultOutcome outcome =
        faults_->Decide(FaultOp::kWrite, 0, payload.size());
    if (outcome != FaultOutcome::kNone) {
      // The sender pays the round-trip it waited before declaring timeout.
      inflight_bytes_ = payload.size();
      clock_->Advance(profile_.latency_us);
      inflight_bytes_ = 0;
      failures_total_++;
      transfer_failures_++;
      span.Annotate("outcome", FaultOutcomeName(outcome));
      return Status(ErrorCode::kIoError,
                    "wan link " + name_ + ": transfer failed (" +
                        FaultOutcomeName(outcome) + ")");
    }
  }
  const SimTime cost = TransferCost(payload.size());
  // In-flight while the clock crosses the wire time: a tick-hook sampler
  // polling at a cadence boundary inside the advance sees the payload.
  inflight_bytes_ = payload.size();
  clock_->Advance(cost);
  inflight_bytes_ = 0;
  if (faults_ != nullptr && faults_->MaybeCorruptRead(payload, 0)) {
    corrupted_total_++;
    corrupted_++;
  }
  transfers_total_++;
  bytes_total_ += payload.size();
  transfers_++;
  bytes_shipped_ += payload.size();
  transfer_us_.Observe(cost);
  return OkStatus();
}

}  // namespace hl
