#include "util/crc32.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define HL_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace hl {
namespace {

// Every kernel works on the raw register: the ~seed pre- and post-inversion
// happens once, in the public entry points. Each kernel is a template on
// kCopy: the copying instantiation stores every byte it loads into `dst`
// (same offsets as `src`), the checksum-only one gets a null `dst` and never
// touches it.
using Kernel = uint32_t (*)(uint8_t* dst, const uint8_t* src, size_t n,
                            uint32_t crc);

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

template <bool kCopy>
uint32_t SliceBy8(uint8_t* dst, const uint8_t* src, size_t n, uint32_t crc) {
  const auto& t = kTables.t;
  size_t at = 0;
  for (; n - at >= 8; at += 8) {
    const uint8_t* p = src + at;
    if constexpr (kCopy) {
      std::memcpy(dst + at, p, 8);
    }
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; at < n; ++at) {
    if constexpr (kCopy) {
      dst[at] = src[at];
    }
    crc = t[0][(crc ^ src[at]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef HL_CRC32_CLMUL

// Carry-less folding after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), with the
// bit-reflected constants for the IEEE polynomial. A fold across a distance
// of T bits multiplies the low 64 bits of a 128-bit lane by
// reflect(x^(T+32) mod P) << 1 and the high 64 bits by
// reflect(x^(T-32) mod P) << 1; DESIGN.md derives every constant below.

#define HL_TARGET_CLMUL __attribute__((target("pclmul,sse4.1")))
#define HL_TARGET_VPCLMUL \
  __attribute__((target("avx512f,avx512vl,vpclmulqdq")))

// The (lo, hi) fold constants for a distance of T bits.
struct FoldPair {
  long long lo;
  long long hi;
};
constexpr FoldPair kFold2048{0x11542778A, 0x1322D1430};
constexpr FoldPair kFold512{0x154442BD4, 0x1C6E41596};
constexpr FoldPair kFold384{0x03DB1ECDC, 0x174359406};
constexpr FoldPair kFold256{0x0F1DA05AA, 0x15A546366};
constexpr FoldPair kFold128{0x1751997D0, 0x0CCAA009E};

HL_TARGET_CLMUL inline __m128i Pair128(FoldPair k) {
  return _mm_set_epi64x(k.hi, k.lo);
}

template <bool kCopy>
HL_TARGET_CLMUL inline __m128i Load128(uint8_t* dst, const uint8_t* src,
                                       size_t at) {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + at));
  if constexpr (kCopy) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + at), v);
  }
  return v;
}

// Advances `acc` across the distance whose two constants `k` holds, then
// adds `data`.
HL_TARGET_CLMUL inline __m128i Fold(__m128i acc, __m128i k, __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       data);
}

// Shared tail of both folding tiers: folds the 16-byte blocks from `at` on
// into the one lane `x`, reduces it to the 32-bit register (128 -> 64 bits
// appending 32 zero bits, 64 -> 32, then Barrett), and finishes the last
// 0-15 bytes with slice-by-8.
template <bool kCopy>
HL_TARGET_CLMUL uint32_t Finish128(__m128i x, uint8_t* dst, const uint8_t* src,
                                   size_t at, size_t n) {
  const __m128i k_128 = Pair128(kFold128);
  // x^64 mod P, for the 64 -> 32 bit fold.
  const __m128i k_fold32 = _mm_set_epi64x(0, 0x163CD6124);
  // Barrett reduction: P in the low lane, floor(x^64 / P) in the high lane.
  const __m128i k_barrett = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  for (; n - at >= 16; at += 16) {
    x = Fold(x, k_128, Load128<kCopy>(dst, src, at));
  }
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k_128, 0x10));
  x = _mm_xor_si128(
      _mm_srli_si128(x, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k_fold32, 0x00));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k_barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), k_barrett, 0x00);
  const uint32_t crc =
      static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
  // A checksum-only kernel's null `dst` is never offset.
  return SliceBy8<kCopy>(kCopy ? dst + at : dst, src + at, n - at, crc);
}

// Four 128-bit lanes fold 64 bytes per step, then fold into one lane.
template <bool kCopy>
HL_TARGET_CLMUL uint32_t FoldClmul(uint8_t* dst, const uint8_t* src, size_t n,
                                   uint32_t crc) {
  if (n < 64) {
    return SliceBy8<kCopy>(dst, src, n, crc);
  }
  const __m128i k_512 = Pair128(kFold512);
  const __m128i k_128 = Pair128(kFold128);
  __m128i x0 = _mm_xor_si128(Load128<kCopy>(dst, src, 0),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128<kCopy>(dst, src, 16);
  __m128i x2 = Load128<kCopy>(dst, src, 32);
  __m128i x3 = Load128<kCopy>(dst, src, 48);
  size_t at = 64;
  for (; n - at >= 64; at += 64) {
    x0 = Fold(x0, k_512, Load128<kCopy>(dst, src, at));
    x1 = Fold(x1, k_512, Load128<kCopy>(dst, src, at + 16));
    x2 = Fold(x2, k_512, Load128<kCopy>(dst, src, at + 32));
    x3 = Fold(x3, k_512, Load128<kCopy>(dst, src, at + 48));
  }
  x0 = Fold(x0, k_128, x1);
  x0 = Fold(x0, k_128, x2);
  x0 = Fold(x0, k_128, x3);
  return Finish128<kCopy>(x0, dst, src, at, n);
}

template <bool kCopy>
HL_TARGET_VPCLMUL inline __m512i Load512(uint8_t* dst, const uint8_t* src,
                                         size_t at) {
  const __m512i v = _mm512_loadu_si512(src + at);
  if constexpr (kCopy) {
    _mm512_storeu_si512(dst + at, v);
  }
  return v;
}

// `k` in all four 128-bit lanes.
HL_TARGET_VPCLMUL inline __m512i Pair512(FoldPair k) {
  return _mm512_set_epi64(k.hi, k.lo, k.hi, k.lo, k.hi, k.lo, k.hi, k.lo);
}

// Fold on four 128-bit lanes at once; 0x96 is the three-way XOR.
HL_TARGET_VPCLMUL inline __m512i Fold512(__m512i acc, __m512i k,
                                         __m512i data) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                   _mm512_clmulepi64_epi128(acc, k, 0x11),
                                   data, 0x96);
}

// Four 512-bit registers (sixteen 128-bit lanes) fold 256 bytes per step.
// The registers then fold into one 64 bytes apart, and its four lanes into
// one 128-bit lane, which the PCLMULQDQ tail finishes.
template <bool kCopy>
HL_TARGET_VPCLMUL uint32_t FoldVpclmul(uint8_t* dst, const uint8_t* src,
                                       size_t n, uint32_t crc) {
  if (n < 256) {
    return FoldClmul<kCopy>(dst, src, n, crc);
  }
  const __m512i k_2048 = Pair512(kFold2048);
  const __m512i k_512 = Pair512(kFold512);
  __m512i x0 = _mm512_xor_si512(
      Load512<kCopy>(dst, src, 0),
      _mm512_maskz_set1_epi32(1, static_cast<int>(crc)));
  __m512i x1 = Load512<kCopy>(dst, src, 64);
  __m512i x2 = Load512<kCopy>(dst, src, 128);
  __m512i x3 = Load512<kCopy>(dst, src, 192);
  size_t at = 256;
  for (; n - at >= 256; at += 256) {
    x0 = Fold512(x0, k_2048, Load512<kCopy>(dst, src, at));
    x1 = Fold512(x1, k_2048, Load512<kCopy>(dst, src, at + 64));
    x2 = Fold512(x2, k_2048, Load512<kCopy>(dst, src, at + 128));
    x3 = Fold512(x3, k_2048, Load512<kCopy>(dst, src, at + 192));
  }
  x1 = Fold512(x0, k_512, x1);
  x2 = Fold512(x1, k_512, x2);
  x3 = Fold512(x2, k_512, x3);
  for (; n - at >= 64; at += 64) {
    x3 = Fold512(x3, k_512, Load512<kCopy>(dst, src, at));
  }
  // Lanes 0, 1 and 2 sit 384, 256 and 128 bits ahead of lane 3: fold each
  // that far (lane 3's constants are zero, so its product vanishes) and add
  // lane 3 as it is. The four lanes then XOR into one. They pass through an
  // array rather than the 512-bit extract intrinsics, which GCC 12's headers
  // make warn under -Wall; the compiler emits the same register extracts.
  const __m512i k_lanes =
      _mm512_set_epi64(0, 0, kFold128.hi, kFold128.lo, kFold256.hi,
                       kFold256.lo, kFold384.hi, kFold384.lo);
  alignas(64) uint8_t lanes[64];
  _mm512_store_si512(
      lanes, _mm512_ternarylogic_epi64(
                 _mm512_clmulepi64_epi128(x3, k_lanes, 0x00),
                 _mm512_clmulepi64_epi128(x3, k_lanes, 0x11),
                 _mm512_maskz_mov_epi64(0xC0, x3), 0x96));
  const __m128i* lane = reinterpret_cast<const __m128i*>(lanes);
  const __m128i x = _mm_ternarylogic_epi64(
      _mm_load_si128(lane), _mm_load_si128(lane + 1),
      _mm_xor_si128(_mm_load_si128(lane + 2), _mm_load_si128(lane + 3)), 0x96);
  // The tail is legacy-SSE code: clear the upper vector state first, or
  // every SSE instruction after this point (here and in the caller) pays
  // the AVX-SSE transition penalty — measured at ~250 ns per call.
  _mm256_zeroupper();
  return Finish128<kCopy>(x, dst, src, at, n);
}

// The first CPUID feature each folding tier needs that this host lacks, or
// null when the tier can run. The VPCLMULQDQ tier hands short inputs and
// its tail to the PCLMULQDQ tier, so it needs that tier's features too.
const char* ClmulMissing() {
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("pclmul")) {
    return "pclmul";
  }
  if (!__builtin_cpu_supports("sse4.1")) {
    return "sse4.1";
  }
  return nullptr;
}

const char* VpclmulMissing() {
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx512f")) {
    return "avx512f";
  }
  if (!__builtin_cpu_supports("avx512vl")) {
    return "avx512vl";
  }
  if (!__builtin_cpu_supports("vpclmulqdq")) {
    return "vpclmulqdq";
  }
  return ClmulMissing();
}

#endif  // HL_CRC32_CLMUL

template <Kernel kKernel>
uint32_t CrcEntry(std::span<const uint8_t> data, uint32_t seed) {
  return ~kKernel(nullptr, data.data(), data.size(), ~seed);
}

template <Kernel kKernel>
uint32_t CopyEntry(std::span<uint8_t> dst, std::span<const uint8_t> src,
                   uint32_t seed) {
  assert(dst.size() == src.size());
  return ~kKernel(dst.data(), src.data(), src.size(), ~seed);
}

template <Kernel kCrc, Kernel kCopy>
constexpr Crc32Kernel MakeKernel(const char* name, const char* missing) {
  return Crc32Kernel{name, missing, CrcEntry<kCrc>, CopyEntry<kCopy>};
}

using KernelTable = std::array<Crc32Kernel, 3>;

KernelTable BuildKernelTable() {
  const Crc32Kernel slice8 =
      MakeKernel<SliceBy8<false>, SliceBy8<true>>("slice8", nullptr);
#ifdef HL_CRC32_CLMUL
  return {MakeKernel<FoldVpclmul<false>, FoldVpclmul<true>>("vpclmul512",
                                                            VpclmulMissing()),
          MakeKernel<FoldClmul<false>, FoldClmul<true>>("pclmul128",
                                                        ClmulMissing()),
          slice8};
#else
  // The folding tiers are x86-only; list them as unavailable so every
  // build reports the same three tiers.
  return {Crc32Kernel{"vpclmul512", "x86", nullptr, nullptr},
          Crc32Kernel{"pclmul128", "x86", nullptr, nullptr}, slice8};
#endif
}

const Crc32Kernel& ActiveKernel() {
  static const Crc32Kernel& active = *std::find_if(
      Crc32Kernels().begin(), Crc32Kernels().end(),
      [](const Crc32Kernel& k) { return k.supported(); });
  return active;
}

}  // namespace

std::span<const Crc32Kernel> Crc32Kernels() {
  static const KernelTable table = BuildKernelTable();
  return table;
}

uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed) {
  static const auto crc = ActiveKernel().crc;
  return crc(data, seed);
}

uint32_t Crc32Copy(std::span<uint8_t> dst, std::span<const uint8_t> src,
                   uint32_t seed) {
  static const auto copy = ActiveKernel().copy;
  return copy(dst, src, seed);
}

namespace {

// a * b modulo the CRC polynomial, both in the reflected bit order the
// register uses (bit 31 holds x^0). The loop walks a's terms from x^0 up
// and stops after its highest one, so a low-degree `a` (x^0, the first
// factor of every shift) costs one step.
constexpr uint32_t MulModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (; a != 0; a <<= 1) {
    product ^= b & (0u - (a >> 31));
    b = (b >> 1) ^ (0xEDB88320u & (0u - (b & 1)));
  }
  return product;
}

// kPow2[k] = x^(2^k) modulo the polynomial.
constexpr std::array<uint32_t, 64> BuildPow2() {
  std::array<uint32_t, 64> pow2{};
  pow2[0] = 1u << 30;  // x^1.
  for (size_t k = 1; k < pow2.size(); ++k) {
    pow2[k] = MulModP(pow2[k - 1], pow2[k - 1]);
  }
  return pow2;
}

constexpr std::array<uint32_t, 64> kPow2 = BuildPow2();

}  // namespace

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  // The pre- and post-inversions cancel: the register after A, shifted
  // through len_b zero bytes, is XORed onto B's CRC. Shifting by n bytes is
  // a multiply by x^(8n), built from the set bits of n (8n = 2^3 * n).
  assert(len_b >> 61 == 0);  // 8 * len_b fits the table's 64 powers.
  uint32_t shift = 1u << 31;  // x^0.
  for (size_t k = 3; len_b != 0; len_b >>= 1, ++k) {
    if (len_b & 1) {
      shift = MulModP(shift, kPow2[k]);
    }
  }
  return MulModP(shift, crc_a) ^ crc_b;
}

}  // namespace hl
