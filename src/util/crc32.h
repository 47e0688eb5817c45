// CRC-32 (IEEE 802.3 polynomial, reflected) used for LFS partial-segment
// summary and data checksums (ss_sumsum / ss_datasum in the paper's Table 1).
//
// The original 4.4BSD LFS used a cheap additive checksum over the first word
// of each block; we use a real CRC so that the recovery tests can detect torn
// partial segments reliably.

#ifndef HIGHLIGHT_UTIL_CRC32_H_
#define HIGHLIGHT_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace hl {

// Incremental CRC: pass the previous value as `seed` to chain buffers.
// Runs the fastest kernel the CPU supports, chosen once per process:
// PCLMULQDQ folding on x86 CPUs that have it, slice-by-8 everywhere else.
uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed = 0);

// The slice-by-8 fallback alone, whatever the CPU. Same results as Crc32;
// exposed so tests and micro-benchmarks can compare the two kernels.
uint32_t Crc32Portable(std::span<const uint8_t> data, uint32_t seed = 0);

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_CRC32_H_
