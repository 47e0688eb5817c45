// Volume: one tertiary medium (tape cartridge, MO platter side, WORM disk).
//
// Storage is sparse (64 KB chunks allocated on first write) so that simulated
// multi-gigabyte tape libraries cost memory only for data actually written.
// Two behaviours from the paper are modeled here:
//  * Uncertain capacity: compressing media may hold less than the nominal
//    size; a write past `actual_capacity` fails with kEndOfMedium, at which
//    point HighLight marks the volume full and re-writes the partial segment
//    on the next volume (paper section 6.3).
//  * Write-once (WORM): rewriting a previously written byte range fails.

#ifndef HIGHLIGHT_TERTIARY_VOLUME_H_
#define HIGHLIGHT_TERTIARY_VOLUME_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/fault_injector.h"
#include "util/status.h"

namespace hl {

class Volume {
 public:
  Volume(std::string label, uint64_t nominal_capacity, bool write_once = false)
      : label_(std::move(label)),
        nominal_capacity_(nominal_capacity),
        actual_capacity_(nominal_capacity),
        write_once_(write_once) {}

  const std::string& label() const { return label_; }
  uint64_t nominal_capacity() const { return nominal_capacity_; }
  uint64_t actual_capacity() const { return actual_capacity_; }
  bool write_once() const { return write_once_; }
  bool marked_full() const { return marked_full_; }
  uint64_t bytes_written() const { return bytes_written_; }
  // High-water mark: one past the last byte ever written.
  uint64_t high_water() const { return high_water_; }

  // Tests use this to model worse-than-expected compression.
  void SetActualCapacity(uint64_t bytes) { actual_capacity_ = bytes; }
  void MarkFull() { marked_full_ = true; }

  // Reads `out.size()` bytes at `offset`. Unwritten regions read as zero
  // (within nominal capacity). With `crc` set, a successful read also
  // reports Crc32 of exactly the bytes delivered into `out`, computed while
  // they are copied; injected corruption (read_corrupt_p) is included.
  Status Read(uint64_t offset, std::span<uint8_t> out,
              uint32_t* crc = nullptr) const;

  // Writes the extent; fails with kEndOfMedium if it would cross the actual
  // capacity, in which case NOTHING is written (the drive reports the error
  // and HighLight re-writes the whole segment on the next volume).
  Status Write(uint64_t offset, std::span<const uint8_t> data);

  // In-place repair of an already-written extent (scrubber support).
  // Bypasses the full mark — the medium already holds data here — but WORM
  // media still refuse, and the extent must lie below the high-water mark.
  Status Rewrite(uint64_t offset, std::span<const uint8_t> data);

  // Erase all contents (tertiary-cleaner support; invalid on WORM media).
  Status Erase();

  // Media-level fault injection (latent sector errors, bit rot). The
  // channel outlives the volume's contents across erase cycles.
  void AttachFaults(FaultChannel* channel) { faults_ = channel; }
  FaultChannel* fault_channel() const { return faults_; }

 private:
  Status CheckInjectedFault(FaultOp op, uint64_t offset, uint64_t len) const;
  void CopyIn(uint64_t offset, std::span<const uint8_t> data);
  static constexpr uint64_t kChunkSize = 64 * 1024;

  std::string label_;
  uint64_t nominal_capacity_;
  uint64_t actual_capacity_;
  bool write_once_;
  bool marked_full_ = false;
  uint64_t bytes_written_ = 0;
  uint64_t high_water_ = 0;
  FaultChannel* faults_ = nullptr;
  std::map<uint64_t, std::vector<uint8_t>> chunks_;
  // For WORM enforcement: written byte ranges, merged. Key = start, val = end.
  std::map<uint64_t, uint64_t> written_ranges_;

  bool RangeWritten(uint64_t start, uint64_t end) const;
  void RecordRange(uint64_t start, uint64_t end);
};

}  // namespace hl

#endif  // HIGHLIGHT_TERTIARY_VOLUME_H_
