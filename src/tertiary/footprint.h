// Footprint: Sequoia's abstract robotic-storage interface (section 2, 6.5).
//
// HighLight never talks to a jukebox directly; it addresses tertiary storage
// as a flat array of volumes, each an array of bytes, through this interface.
// Footprint hides which physical changer owns a volume, handles drive
// allocation and media swaps, and reports end-of-medium so the caller can
// roll a partial segment onto the next volume. In the original system this
// was a library linked into the I/O server (optionally RPC'd to another
// machine); here it is a class owning one or more simulated jukeboxes.

#ifndef HIGHLIGHT_TERTIARY_FOOTPRINT_H_
#define HIGHLIGHT_TERTIARY_FOOTPRINT_H_

#include <memory>
#include <span>
#include <vector>

#include "sim/sim_clock.h"
#include "tertiary/jukebox.h"
#include "util/status.h"

namespace hl {

class Footprint {
 public:
  // Non-owning; jukeboxes must outlive the Footprint.
  explicit Footprint(std::vector<Jukebox*> jukeboxes);

  int NumVolumes() const { return total_volumes_; }

  // Capacity of a volume in bytes (nominal; compression may reduce it).
  Result<uint64_t> VolumeCapacity(int volume) const;

  // Synchronous extent I/O (advances the simulation clock). Reads take the
  // optional `crc` out-param of Volume::Read: on success it holds Crc32 of
  // exactly the bytes delivered into `out`, injected corruption included,
  // computed in the same pass that copies them.
  Status Read(int volume, uint64_t offset, std::span<uint8_t> out,
              uint32_t* crc = nullptr);
  Status Write(int volume, uint64_t offset, std::span<const uint8_t> data);

  // Asynchronous extent I/O for the I/O server's write-behind pipeline.
  Result<SimTime> ScheduleRead(SimTime earliest, int volume, uint64_t offset,
                               std::span<uint8_t> out,
                               uint32_t* crc = nullptr);
  Result<SimTime> ScheduleWrite(SimTime earliest, int volume, uint64_t offset,
                                std::span<const uint8_t> data);

  // True if the volume is currently loaded in a drive (a read costs no
  // media swap) — the "closest copy" signal for replica selection.
  Result<bool> VolumeMounted(int volume) const;

  // End-of-medium bookkeeping: mark a volume full so no further writes are
  // attempted on it.
  Status MarkVolumeFull(int volume);
  Result<bool> VolumeFull(int volume) const;

  // Scrubber support: overwrite an already-written extent in place, even on
  // a volume marked full (the data is already there; only WORM media refuse).
  Status RepairWrite(int volume, uint64_t offset,
                     std::span<const uint8_t> data);

  // Tertiary-cleaner support: wipe a (non-WORM) volume for reuse.
  Status EraseVolume(int volume);

  // Direct volume access for tests/tools (e.g. media-failure injection).
  Result<Volume*> GetVolume(int volume);

  uint64_t TotalMediaSwaps() const;

 private:
  struct Mapping {
    Jukebox* jukebox;
    int slot;
  };
  Result<Mapping> Map(int volume) const;

  std::vector<Jukebox*> jukeboxes_;
  std::vector<int> bases_;  // First flat volume index per jukebox.
  int total_volumes_ = 0;
};

}  // namespace hl

#endif  // HIGHLIGHT_TERTIARY_FOOTPRINT_H_
