#include "util/crc32.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define HL_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace hl {
namespace {

// Every kernel works on the raw register: the ~seed pre- and post-inversion
// happens once, in the public entry points.
using Kernel = uint32_t (*)(const uint8_t* p, size_t n, uint32_t crc);

// kTables.t[k][b] is the CRC register after byte b is followed by k zero
// bytes, so eight table lookups advance the register by eight bytes.
struct SliceTables {
  uint32_t t[8][256];
};

constexpr SliceTables BuildTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr SliceTables kTables = BuildTables();

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint32_t SliceBy8(const uint8_t* p, size_t n, uint32_t crc) {
  const auto& t = kTables.t;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef HL_CRC32_CLMUL

// Carry-less folding after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), with the
// bit-reflected constants for the IEEE polynomial. Four 128-bit lanes fold
// 64 bytes per step; the lanes then fold into one, 16 bytes at a time, and a
// Barrett reduction turns the last 64 bits into the 32-bit register.

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load128(
    const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Advances `acc` across the distance whose two constants `k` holds, then
// adds `data`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i acc,
                                                            __m128i k,
                                                            __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       data);
}

__attribute__((target("pclmul,sse4.1"))) uint32_t FoldClmul(const uint8_t* p,
                                                           size_t n,
                                                           uint32_t crc) {
  if (n < 64) {
    return SliceBy8(p, n, crc);
  }
  // Fold constants x^(T+32) mod P (low lane) and x^(T-32) mod P (high lane)
  // for a distance of T = 512 bits (one four-lane step) and T = 128 bits.
  const __m128i k_lane4 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  const __m128i k_lane1 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);
  // x^64 mod P, for the 64 -> 32 bit fold.
  const __m128i k_fold32 = _mm_set_epi64x(0, 0x163CD6124);
  // Barrett reduction: P in the low lane, floor(x^64 / P) in the high lane.
  const __m128i k_barrett = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x0 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k_lane4, Load128(p));
    x1 = Fold(x1, k_lane4, Load128(p + 16));
    x2 = Fold(x2, k_lane4, Load128(p + 32));
    x3 = Fold(x3, k_lane4, Load128(p + 48));
  }
  x0 = Fold(x0, k_lane1, x1);
  x0 = Fold(x0, k_lane1, x2);
  x0 = Fold(x0, k_lane1, x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = Fold(x0, k_lane1, Load128(p));
  }

  // 128 -> 64 bits (appending 32 zero bits), then 64 -> 32.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k_lane1, 0x10));
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k_fold32, 0x00));
  __m128i q =
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k_barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), k_barrett, 0x00);
  crc = static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
  return SliceBy8(p, n, crc);
}

Kernel PickKernel() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return FoldClmul;
  }
  return SliceBy8;
}

#else

Kernel PickKernel() { return SliceBy8; }

#endif  // HL_CRC32_CLMUL

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed) {
  static const Kernel kernel = PickKernel();
  return ~kernel(data.data(), data.size(), ~seed);
}

uint32_t Crc32Portable(std::span<const uint8_t> data, uint32_t seed) {
  return ~SliceBy8(data.data(), data.size(), ~seed);
}

}  // namespace hl
