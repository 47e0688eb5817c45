// SimDisk: an in-memory disk with an analytic timing model.
//
// Data are byte-accurate (a zero-filled in-memory image, which InPlaceBytes
// lends out so a fetch can land in a cache line without a second copy),
// while service time is computed from the DiskProfile: per-op overhead +
// seek (function of arm travel distance) + rotational latency + transfer.
// The disk serializes its operations through a Resource and optionally
// shares a bus Resource, which is how the benchmarks reproduce the paper's
// SCSI-bus and disk-arm contention observations.
//
// Asynchronous use: Schedule{Read,Write}At() performs the data movement
// immediately (the simulation has no real concurrency) but reserves device
// time starting at a caller-chosen instant and returns the completion time
// without advancing the shared clock. The I/O server uses this to overlap
// tertiary writes with migrator activity.

#ifndef HIGHLIGHT_BLOCKDEV_SIM_DISK_H_
#define HIGHLIGHT_BLOCKDEV_SIM_DISK_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "blockdev/block_device.h"
#include "sim/device_profile.h"
#include "sim/sim_clock.h"
#include "util/fault_injector.h"
#include "util/metrics.h"
#include "util/status.h"

namespace hl {

class SimDisk : public BlockDevice {
 public:
  // `bus` may be null (private bus). The clock must outlive the disk.
  SimDisk(std::string name, uint32_t num_blocks, DiskProfile profile,
          SimClock* clock, Resource* bus = nullptr);

  uint32_t NumBlocks() const override { return num_blocks_; }
  const std::string& Name() const override { return name_; }

  Status ReadBlocks(uint32_t block, uint32_t count,
                    std::span<uint8_t> out) override;
  Status WriteBlocks(uint32_t block, uint32_t count,
                     std::span<const uint8_t> data) override;
  // That range of the in-memory image (empty for an invalid range).
  std::span<uint8_t> InPlaceBytes(uint32_t block, uint32_t count) override;

  // Async variants: data moves now, device time is reserved from
  // max(earliest, device free) and the completion time is returned. The
  // caller is responsible for advancing the clock when it decides to wait.
  // A write handed the image's own bytes for its range skips the copy; one
  // whose bytes partly overlap that range is rejected.
  Result<SimTime> ScheduleReadAt(SimTime earliest, uint32_t block,
                                 uint32_t count, std::span<uint8_t> out);
  Result<SimTime> ScheduleWriteAt(SimTime earliest, uint32_t block,
                                  uint32_t count,
                                  std::span<const uint8_t> data);

  // Fault injection for robustness tests: fail the next `n` operations.
  // A thin shim over the fault channel when one is attached.
  void FailNextOps(int n) {
    if (faults_ != nullptr) {
      faults_->FailNextOps(n);
    } else {
      fail_ops_ = n;
    }
  }

  // Routes this disk's operations through "disk.<name>" in `injector`.
  // Injected failures still charge full service time: the arm sought and
  // the platters turned before the error surfaced.
  void AttachFaults(FaultInjector* injector);
  FaultChannel* fault_channel() const { return faults_; }

  // Re-homes the per-op counters into `registry` under "disk.<name>.*"
  // (counts accumulated while detached carry over).
  void AttachMetrics(MetricsRegistry* registry);

  // Statistics.
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t seeks() const { return seeks_; }
  SimTime busy_time() const { return spindle_.busy_total(); }
  const DiskProfile& profile() const { return profile_; }

 private:
  Status CheckRange(uint32_t block, uint32_t count) const;
  // Computes service time for an op at `byte_offset` and updates arm state.
  SimTime ServiceTime(uint64_t byte_offset, uint64_t bytes, bool is_write);

  std::string name_;
  uint32_t num_blocks_;
  DiskProfile profile_;
  SimClock* clock_;
  Resource spindle_;
  Resource* bus_;
  // The image comes from calloc, so pages no write touches are never
  // faulted in: building a deployment costs only the blocks it writes.
  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };
  std::unique_ptr<uint8_t[], FreeDeleter> data_;
  uint64_t arm_byte_pos_ = 0;

  int fail_ops_ = 0;
  FaultChannel* faults_ = nullptr;
  Counter reads_;
  Counter writes_;
  Counter bytes_read_;
  Counter bytes_written_;
  Counter seeks_;
};

}  // namespace hl

#endif  // HIGHLIGHT_BLOCKDEV_SIM_DISK_H_
