// CRC-32 (IEEE 802.3 polynomial, reflected) used for LFS partial-segment
// summary and data checksums (ss_sumsum / ss_datasum in the paper's Table 1)
// and for the tertiary segment images HighLight stamps at copy-out and
// verifies on every fetch, scrub and cross-site ship.
//
// The original 4.4BSD LFS used a cheap additive checksum over the first word
// of each block; we use a real CRC so that the recovery tests can detect torn
// partial segments reliably.
//
// Three kernels, the fastest one the CPU supports chosen once per process by
// CPUID: a 512-bit VPCLMULQDQ fold (AVX-512 CPUs; inputs under 256 bytes go
// to the next tier), a 128-bit PCLMULQDQ fold, and slice-by-8 everywhere
// else (non-x86 builds, and the last few bytes of any input).

#ifndef HIGHLIGHT_UTIL_CRC32_H_
#define HIGHLIGHT_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace hl {

// Incremental CRC: pass the previous value as `seed` to chain buffers.
uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed = 0);

// Copies `src` into `dst` and returns Crc32(src, seed), reading the source
// once: each kernel stores what it loads. `dst` must be exactly as long as
// `src` and must not overlap it. The tertiary read path uses this so a
// segment image is checksummed while it moves, not read a second time.
uint32_t Crc32Copy(std::span<uint8_t> dst, std::span<const uint8_t> src,
                   uint32_t seed = 0);

// Crc32 of A followed by B, given crc_a = Crc32(A), crc_b = Crc32(B) and
// len_b = B's length, without reading either: appending B multiplies A's
// register by x^(8 * len_b) modulo the polynomial. Costs O(log len_b)
// carry-less multiplies of 32-bit values, so a run of chunks whose CRCs
// were stored when they were written is checked without hashing them again.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

// One kernel tier, exposed so tests and micro-benchmarks can run each tier
// directly and say which ones this host ran.
struct Crc32Kernel {
  const char* name;  // "vpclmul512", "pclmul128" or "slice8".
  // The first CPU feature the tier needs that this host (or build) lacks;
  // null when the tier can run here.
  const char* missing_feature;
  uint32_t (*crc)(std::span<const uint8_t> data, uint32_t seed);
  uint32_t (*copy)(std::span<uint8_t> dst, std::span<const uint8_t> src,
                   uint32_t seed);

  bool supported() const { return missing_feature == nullptr; }
};

// Every tier, fastest first; Crc32 and Crc32Copy run the first supported
// one. Calling an unsupported tier's functions is undefined.
std::span<const Crc32Kernel> Crc32Kernels();

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_CRC32_H_
