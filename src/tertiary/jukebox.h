// Jukebox: a robotic media changer with N drives and M slots.
//
// Reproduces the mechanics the paper depends on:
//  * media swaps take JukeboxProfile::media_swap_us (13.5 s on the HP 6300,
//    measured eject -> first sector readable, Table 5);
//  * the paper's autochanger driver did not disconnect from the SCSI bus, so
//    a swap can "hog" a shared bus Resource;
//  * drive allocation follows the benchmark setup: one drive is dedicated to
//    the currently-written volume, the other(s) serve reads, and the write
//    drive also serves reads for its own platter (section 7).

#ifndef HIGHLIGHT_TERTIARY_JUKEBOX_H_
#define HIGHLIGHT_TERTIARY_JUKEBOX_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/device_profile.h"
#include "sim/sim_clock.h"
#include "tertiary/volume.h"
#include "util/fault_injector.h"
#include "util/metrics.h"
#include "util/span.h"
#include "util/status.h"
#include "util/trace.h"

namespace hl {

class Jukebox {
 public:
  // `bus` may be null. The clock must outlive the jukebox.
  Jukebox(JukeboxProfile profile, SimClock* clock, Resource* bus = nullptr,
          bool write_once_media = false);

  const JukeboxProfile& profile() const { return profile_; }
  int num_slots() const { return static_cast<int>(slots_.size()); }
  int num_drives() const { return static_cast<int>(drives_.size()); }
  uint64_t volume_capacity() const { return profile_.volume_capacity_bytes; }

  Volume& volume(int slot) { return *slots_[slot]; }
  const Volume& volume(int slot) const { return *slots_[slot]; }

  // True if the slot's medium is currently loaded in a drive (reads on it
  // avoid the media-swap latency).
  bool IsMounted(int slot) const {
    for (const Drive& d : drives_) {
      if (d.loaded_slot == slot) {
        return true;
      }
    }
    return false;
  }

  // Synchronous transfers: mount (swapping media if needed), seek, transfer;
  // the clock is advanced to completion. Reads take the optional `crc`
  // out-param of Volume::Read (Crc32 of the bytes delivered).
  Status Read(int slot, uint64_t offset, std::span<uint8_t> out,
              uint32_t* crc = nullptr);
  Status Write(int slot, uint64_t offset, std::span<const uint8_t> data);

  // Scrubber repair: overwrite an already-written extent in place (bypasses
  // the volume's full mark; WORM media refuse). Charges a normal write
  // transfer and advances the clock.
  Status Rewrite(int slot, uint64_t offset, std::span<const uint8_t> data);

  // Asynchronous variants: reserve drive/robot/bus time beginning no earlier
  // than `earliest`, move the data now, and return the completion time
  // without touching the clock.
  Result<SimTime> ScheduleRead(SimTime earliest, int slot, uint64_t offset,
                               std::span<uint8_t> out,
                               uint32_t* crc = nullptr);
  Result<SimTime> ScheduleWrite(SimTime earliest, int slot, uint64_t offset,
                                std::span<const uint8_t> data);

  // Statistics.
  uint64_t media_swaps() const { return media_swaps_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }
  // Transfers that found their volume already seated in a drive — the
  // batching win the swap-aware read scheduler is after.
  uint64_t mounted_transfers() const { return mounted_transfers_; }
  // Per-volume insertion counts (tape wear, section 6.5 footnote).
  uint64_t insertions(int slot) const { return insertions_[slot]; }

  // Re-homes counters into `registry` under "jukebox.<name>.*" and emits
  // volume_switch trace events through `tracer`.
  void AttachMetrics(MetricsRegistry* registry, Tracer tracer);

  // Device-lane span tracing: media swaps and transfers are recorded as
  // pre-timed spans on the "jukebox.<name>" track, parented to whatever
  // span is open on the caller's stack at schedule time. Null disables.
  void SetSpans(SpanTracer* spans);

  // Robot + drive busy time (for utilization snapshots).
  SimTime busy_time() const {
    SimTime t = robot_.busy_total();
    for (const Drive& d : drives_) {
      t += d.res.busy_total();
    }
    return t;
  }

  // Simulated-failure hook for robustness tests. A thin shim over the
  // drive-level fault channel when one is attached.
  void FailNextOps(int n) {
    if (faults_ != nullptr) {
      faults_->FailNextOps(n);
    } else {
      fail_ops_ = n;
    }
  }

  // Routes drive transfers through "jukebox.<name>" and each volume's media
  // through "volume.<label>" in `injector`. Injected drive faults and latent
  // media errors charge full mount/seek/transfer time; robot-load timeouts
  // charge the swap latency without seating the medium.
  void AttachFaults(FaultInjector* injector);
  FaultChannel* fault_channel() const { return faults_; }

 private:
  struct Drive {
    Resource res;
    int loaded_slot = -1;
    uint64_t head_pos = 0;
    SimTime last_used = 0;
    explicit Drive(std::string name) : res(std::move(name)) {}
  };

  // Makes sure `slot` is in a drive; returns the drive index. Reserves the
  // robot (and bus, if hogging) for the swap starting at `earliest` and
  // returns via `ready_at` when the drive can start transferring.
  Result<int> EnsureMounted(int slot, bool for_write, SimTime earliest,
                            SimTime* ready_at);

  Result<SimTime> Transfer(SimTime earliest, int slot, uint64_t offset,
                           size_t bytes, bool is_write);

  // The drive a swap for `slot` would target (write drive vs. LRU reader).
  int ChooseDrive(bool for_write) const;
  // Charges a full (failed) swap: robot, drive and bus time pass, but the
  // medium never seats. Returns the load-timeout error.
  Status ChargeFailedLoad(int slot, bool for_write, SimTime earliest);

  JukeboxProfile profile_;
  SimClock* clock_;
  Resource* bus_;
  Resource robot_;
  std::vector<std::unique_ptr<Volume>> slots_;
  std::vector<Drive> drives_;
  std::vector<uint64_t> insertions_;

  int fail_ops_ = 0;
  FaultChannel* faults_ = nullptr;
  SpanTracer* spans_ = nullptr;
  std::string span_track_;  // "jukebox.<name>", cached for the hot path.
  Counter media_swaps_;
  Counter bytes_read_;
  Counter bytes_written_;
  Counter mounted_transfers_;
  Tracer tracer_;
};

}  // namespace hl

#endif  // HIGHLIGHT_TERTIARY_JUKEBOX_H_
