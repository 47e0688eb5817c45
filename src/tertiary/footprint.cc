#include "tertiary/footprint.h"

#include <cassert>

namespace hl {

Footprint::Footprint(std::vector<Jukebox*> jukeboxes)
    : jukeboxes_(std::move(jukeboxes)) {
  assert(!jukeboxes_.empty());
  for (Jukebox* j : jukeboxes_) {
    bases_.push_back(total_volumes_);
    total_volumes_ += j->num_slots();
  }
}

Result<Footprint::Mapping> Footprint::Map(int volume) const {
  if (volume < 0 || volume >= total_volumes_) {
    return OutOfRange("footprint: no volume " + std::to_string(volume));
  }
  size_t i = 0;
  while (i + 1 < bases_.size() && bases_[i + 1] <= volume) {
    ++i;
  }
  return Mapping{jukeboxes_[i], volume - bases_[i]};
}

Result<uint64_t> Footprint::VolumeCapacity(int volume) const {
  ASSIGN_OR_RETURN(Mapping m, Map(volume));
  return m.jukebox->volume(m.slot).nominal_capacity();
}

Status Footprint::Read(int volume, uint64_t offset, std::span<uint8_t> out,
                       uint32_t* crc) {
  ASSIGN_OR_RETURN(Mapping m, Map(volume));
  return m.jukebox->Read(m.slot, offset, out, crc);
}

Status Footprint::Write(int volume, uint64_t offset,
                        std::span<const uint8_t> data, uint32_t* crc) {
  ASSIGN_OR_RETURN(Mapping m, Map(volume));
  return m.jukebox->Write(m.slot, offset, data, crc);
}

Result<SimTime> Footprint::ScheduleRead(SimTime earliest, int volume,
                                        uint64_t offset, uint64_t len,
                                        std::vector<ChunkRef>* out,
                                        uint32_t* crc) {
  ASSIGN_OR_RETURN(Mapping m, Map(volume));
  return m.jukebox->ScheduleRead(earliest, m.slot, offset, len, out, crc);
}

Result<SimTime> Footprint::ScheduleWrite(SimTime earliest, int volume,
                                         uint64_t offset,
                                         std::span<const uint8_t> data,
                                         uint32_t* crc) {
  ASSIGN_OR_RETURN(Mapping m, Map(volume));
  return m.jukebox->ScheduleWrite(earliest, m.slot, offset, data, crc);
}

Result<bool> Footprint::VolumeMounted(int volume) const {
  ASSIGN_OR_RETURN(Mapping m, Map(volume));
  return m.jukebox->IsMounted(m.slot);
}

Status Footprint::RepairWrite(int volume, uint64_t offset,
                              std::span<const uint8_t> data, uint32_t* crc) {
  ASSIGN_OR_RETURN(Mapping m, Map(volume));
  return m.jukebox->Rewrite(m.slot, offset, data, crc);
}

Status Footprint::EraseVolume(int volume) {
  ASSIGN_OR_RETURN(Mapping m, Map(volume));
  return m.jukebox->volume(m.slot).Erase();
}

Result<Volume*> Footprint::GetVolume(int volume) {
  ASSIGN_OR_RETURN(Mapping m, Map(volume));
  return &m.jukebox->volume(m.slot);
}

uint64_t Footprint::TotalMediaSwaps() const {
  uint64_t total = 0;
  for (const Jukebox* j : jukeboxes_) {
    total += j->media_swaps();
  }
  return total;
}

}  // namespace hl
