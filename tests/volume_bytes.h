// A copying read of a volume for tests: the volume's one read hands out
// chunk references, and tests that compare bytes gather them into a buffer
// the way Jukebox::Read does. Header-only: nothing in src/ calls it.

#ifndef HIGHLIGHT_TESTS_VOLUME_BYTES_H_
#define HIGHLIGHT_TESTS_VOLUME_BYTES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "tertiary/volume.h"
#include "util/chunk.h"
#include "util/status.h"

namespace hl {

// Reads `out.size()` bytes at `offset` into `out`, with Volume::Read's
// checks, fault draws and `crc`.
inline Status ReadBytes(const Volume& volume, uint64_t offset,
                        std::span<uint8_t> out, uint32_t* crc = nullptr) {
  std::vector<ChunkRef> chunks;
  RETURN_IF_ERROR(volume.Read(offset, out.size(), &chunks, crc));
  CopyChunks(chunks, out);
  return OkStatus();
}

}  // namespace hl

#endif  // HIGHLIGHT_TESTS_VOLUME_BYTES_H_
