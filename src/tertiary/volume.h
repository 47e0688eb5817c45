// Volume: one tertiary medium (tape cartridge, MO platter side, WORM disk).
//
// The bytes live in a ChunkStore (util/chunk.h), the representation the raw
// disks use too: 64 KB copy-on-write chunks allocated on first write, so
// simulated multi-gigabyte tape libraries cost memory only for data
// actually written. The one read hands out chunks (ChunkStore::Share), and
// every write asks the store for the CRC of what it stored, which keeps each
// written chunk's stored CRC current. The volume adds only what a medium
// knows: capacity, WORM, the high-water mark and its fault draws. An
// injected bit flip never reaches the medium: the reader gets private
// chunks holding the flipped copy.
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

#include "util/chunk.h"
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
  uint64_t bytes_written() const { return bytes_written_; }
  // High-water mark: one past the last byte ever written.
  uint64_t high_water() const { return high_water_; }

  // Tests use this to model worse-than-expected compression.
  void SetActualCapacity(uint64_t bytes) { actual_capacity_ = bytes; }

  // Reads `len` bytes at `offset` by reference: `out` receives the chunks
  // ChunkStore::Share delivers for the extent (unwritten regions within
  // nominal capacity read as zero), and `crc` the Crc32 of those `len`
  // bytes. Makes the range check and the media fault draw; only when the
  // profile can corrupt reads (read_corrupt_p > 0) does it make the
  // corruption draw, over a copy of the `len` bytes. When a flip fires,
  // `out` holds fresh chunks with the flipped copy and `crc` describes them.
  Status Read(uint64_t offset, uint64_t len, std::vector<ChunkRef>* out,
              uint32_t* crc = nullptr) const;

  // Writes the extent; fails with kEndOfMedium if it would cross the actual
  // capacity, in which case NOTHING is written (the drive reports the error
  // and HighLight re-writes the whole segment on the next volume). With
  // `crc` set, a successful write also reports Crc32 of the bytes it
  // stored, computed in the copy that stores them.
  Status Write(uint64_t offset, std::span<const uint8_t> data,
               uint32_t* crc = nullptr);

  // In-place repair of an already-written extent (scrubber support). WORM
  // media refuse, and the extent must lie below the high-water mark.
  // `crc` as for Write.
  Status Rewrite(uint64_t offset, std::span<const uint8_t> data,
                 uint32_t* crc = nullptr);

  // Erase all contents (tertiary-cleaner support; invalid on WORM media).
  // Chunks someone else still holds stay alive with their holders.
  Status Erase();

  // The chunk holding byte `offset`, or null where nothing was written.
  const Chunk* ChunkAt(uint64_t offset) const;

  // Media-level fault injection (latent sector errors, bit rot). The
  // channel outlives the volume's contents across erase cycles.
  void AttachFaults(FaultChannel* channel) { faults_ = channel; }
  FaultChannel* fault_channel() const { return faults_; }

 private:
  Status CheckInjectedFault(FaultOp op, uint64_t offset, uint64_t len) const;
  // The landing both Write and Rewrite make once their checks pass.
  void Store(uint64_t offset, std::span<const uint8_t> data, uint32_t* crc);

  std::string label_;
  uint64_t nominal_capacity_;
  uint64_t actual_capacity_;
  bool write_once_;
  uint64_t bytes_written_ = 0;
  uint64_t high_water_ = 0;
  FaultChannel* faults_ = nullptr;
  ChunkStore store_;
  // For WORM enforcement: written byte ranges, merged. Key = start, val = end.
  std::map<uint64_t, uint64_t> written_ranges_;

  bool RangeWritten(uint64_t start, uint64_t end) const;
  void RecordRange(uint64_t start, uint64_t end);
};

}  // namespace hl

#endif  // HIGHLIGHT_TERTIARY_VOLUME_H_
