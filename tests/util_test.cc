// Unit tests for the utility layer: Status/Result, CRC32, serialization,
// RNG, fault injection, and device health tracking.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "sim/sim_clock.h"
#include "util/crc32.h"
#include "util/fault_injector.h"
#include "util/health.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace hl {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "kOk");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("inode 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "kNotFound: inode 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "kUnknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NoSpace("log full");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNoSpace);
}

Result<int> Doubler(Result<int> in) {
  ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Internal("boom")).status().code(), ErrorCode::kInternal);
}

// The textbook bytewise CRC-32, one table lookup per byte: the reference
// every production kernel is checked against. Works on the raw register, so
// a sweep over every prefix length costs one pass.
uint32_t BytewiseStep(uint32_t reg, uint8_t byte) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table[(reg ^ byte) & 0xFFu] ^ (reg >> 8);
}

uint32_t Crc32Bytewise(std::span<const uint8_t> data, uint32_t seed = 0) {
  uint32_t reg = ~seed;
  for (uint8_t byte : data) {
    reg = BytewiseStep(reg, byte);
  }
  return ~reg;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (uint8_t& b : v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return v;
}

constexpr uint8_t kPoison = 0xA5;

// Runs `k.copy` from `src` into a poisoned buffer at byte offset `dst_at`
// and checks the result: the returned CRC is `want`, the copied bytes equal
// `src`, and every byte outside the destination still holds the poison.
// Guard bands are 128 bytes, wider than any kernel's widest store.
void ExpectCopy(const Crc32Kernel& k, std::span<const uint8_t> src,
                size_t dst_at, uint32_t seed, uint32_t want) {
  constexpr size_t kGuard = 128;
  std::vector<uint8_t> buf(kGuard + dst_at + src.size() + kGuard, kPoison);
  std::span<uint8_t> dst(buf.data() + kGuard + dst_at, src.size());
  ASSERT_EQ(k.copy(dst, src, seed), want)
      << k.name << " copy, length " << src.size();
  ASSERT_TRUE(std::equal(src.begin(), src.end(), dst.begin()))
      << k.name << " copy, length " << src.size();
  const auto poisoned = [](uint8_t b) { return b == kPoison; };
  ASSERT_TRUE(std::all_of(buf.data(), dst.data(), poisoned))
      << k.name << " wrote before dst, length " << src.size();
  ASSERT_TRUE(
      std::all_of(dst.data() + dst.size(), buf.data() + buf.size(), poisoned))
      << k.name << " wrote past dst, length " << src.size();
}

// Every length 0-2100 at every start offset 0-63, both functions: covers
// the slice-by-8 tail, every 16 B / 64 B / 256 B fold boundary, and the
// 256 B threshold where the 512-bit tier hands off to the 128-bit one.
void ExpectMatchesAtEveryLengthAndOffset(const Crc32Kernel& k) {
  constexpr size_t kMaxLen = 2100;
  const std::vector<uint8_t> buf = RandomBytes(kMaxLen + 64, 1);
  for (size_t offset = 0; offset < 64; ++offset) {
    uint32_t reg = ~0u;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      std::span<const uint8_t> data(buf.data() + offset, len);
      const uint32_t want = ~reg;
      ASSERT_EQ(k.crc(data, 0), want)
          << k.name << " offset " << offset << " length " << len;
      ExpectCopy(k, data, (offset * 7 + 3) % 64, 0, want);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      if (len < kMaxLen) {
        reg = BytewiseStep(reg, buf[offset + len]);
      }
    }
  }
}

void ExpectMatchesOnBlockAndSegmentSizes(const Crc32Kernel& k) {
  const std::vector<uint8_t> buf = RandomBytes((1 << 20) + 64, 2);
  for (size_t len : {size_t{4096}, size_t{256} << 10, size_t{1} << 20}) {
    for (size_t offset : {0, 1, 8, 15, 63}) {
      std::span<const uint8_t> data(buf.data() + offset, len);
      const uint32_t seed = static_cast<uint32_t>(len + offset);
      const uint32_t want = Crc32Bytewise(data, seed);
      EXPECT_EQ(k.crc(data, seed), want)
          << k.name << " offset " << offset << " length " << len;
      ExpectCopy(k, data, offset, seed, want);
    }
  }
}

// Every split point up to 1040 bytes, so both halves cross or stop short of
// the 16 B, 64 B and 256 B fold boundaries in every combination.
void ExpectChainedCallsMatchOneShot(const Crc32Kernel& k) {
  const std::vector<uint8_t> buf = RandomBytes(1040, 3);
  const std::span<const uint8_t> all(buf);
  const uint32_t want = Crc32Bytewise(all);
  std::vector<uint8_t> dst(all.size());
  for (size_t split = 0; split <= all.size(); ++split) {
    ASSERT_EQ(k.crc(all.subspan(split), k.crc(all.first(split), 0)), want)
        << k.name << " split at " << split;
    std::fill(dst.begin(), dst.end(), kPoison);
    const std::span<uint8_t> out(dst);
    const uint32_t head = k.copy(out.first(split), all.first(split), 0);
    ASSERT_EQ(k.copy(out.subspan(split), all.subspan(split), head), want)
        << k.name << " copy split at " << split;
    ASSERT_EQ(dst, buf) << k.name << " copy split at " << split;
  }
}

// The dispatched entry points, checked like any tier.
constexpr Crc32Kernel kDispatched{"dispatched", nullptr, Crc32, Crc32Copy};

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE).
  const char* s = "123456789";
  std::span<const uint8_t> data(reinterpret_cast<const uint8_t*>(s), 9);
  EXPECT_EQ(Crc32Bytewise(data), 0xCBF43926u);
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
  std::array<uint8_t, 9> copy{};
  EXPECT_EQ(Crc32Copy(copy, data), 0xCBF43926u);
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndOffset) {
  ExpectMatchesAtEveryLengthAndOffset(kDispatched);
}

TEST(Crc32Test, MatchesBytewiseOnBlockAndSegmentSizes) {
  ExpectMatchesOnBlockAndSegmentSizes(kDispatched);
}

TEST(Crc32Test, ChainedCallsMatchOneShot) {
  ExpectChainedCallsMatchOneShot(kDispatched);
}

TEST(Crc32Test, EmptyIsZero) {
  EXPECT_EQ(Crc32(std::span<const uint8_t>()), 0u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(4096, 0xAB);
  uint32_t before = Crc32(data);
  data[1234] ^= 0x01;
  EXPECT_NE(before, Crc32(data));
}

TEST(Crc32Test, TiersListedFastestFirst) {
  // Crc32 and Crc32Copy dispatch to the first supported entry, so the
  // order is the preference order, and the portable floor always runs.
  const auto tiers = Crc32Kernels();
  ASSERT_EQ(tiers.size(), 3u);
  EXPECT_STREQ(tiers[0].name, "vpclmul512");
  EXPECT_STREQ(tiers[1].name, "pclmul128");
  EXPECT_STREQ(tiers[2].name, "slice8");
  EXPECT_TRUE(tiers[2].supported());
}

// Each tier run directly, whatever the dispatcher picks on this host. A tier
// the CPU cannot run is skipped with the missing CPUID feature named, so a
// test log shows which tiers were actually exercised.
class Crc32KernelTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    if (!kernel().supported()) {
      GTEST_SKIP() << kernel().name << " needs " << kernel().missing_feature
                   << ", which this CPU lacks";
    }
  }
  const Crc32Kernel& kernel() const { return Crc32Kernels()[GetParam()]; }
};

TEST_P(Crc32KernelTest, MatchesBytewiseAtEveryLengthAndOffset) {
  ExpectMatchesAtEveryLengthAndOffset(kernel());
}

TEST_P(Crc32KernelTest, MatchesBytewiseOnBlockAndSegmentSizes) {
  ExpectMatchesOnBlockAndSegmentSizes(kernel());
}

TEST_P(Crc32KernelTest, ChainedCallsMatchOneShot) {
  ExpectChainedCallsMatchOneShot(kernel());
}

INSTANTIATE_TEST_SUITE_P(Tiers, Crc32KernelTest,
                         ::testing::Range<size_t>(0, Crc32Kernels().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(Crc32Kernels()[info.param].name);
                         });

TEST(SerializeTest, RoundTripsScalars) {
  std::vector<uint8_t> buf(64);
  Writer w(buf);
  w.PutU8(0x12);
  w.PutU16(0x3456);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutStringField("hello", 10);

  Reader r(buf);
  EXPECT_EQ(r.GetU8(), 0x12);
  EXPECT_EQ(r.GetU16(), 0x3456);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetStringField(10), "hello");
  EXPECT_TRUE(r.Ok());
}

TEST(SerializeTest, LittleEndianLayout) {
  std::vector<uint8_t> buf(4);
  Writer w(buf);
  w.PutU32(0x01020304);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(SerializeTest, ReaderOverrunFails) {
  std::vector<uint8_t> buf(2);
  Reader r(buf);
  r.GetU32();
  EXPECT_FALSE(r.Ok());
  EXPECT_FALSE(r.ToStatus("test").ok());
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  EXPECT_EQ(rng.Below(0), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(FaultChannelTest, ZeroProfileNeverFaults) {
  SimClock clock;
  FaultInjector inj(&clock, 42);
  FaultChannel* c = inj.Channel("disk.d0");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(c->Decide(FaultOp::kRead, i * 4096, 4096), FaultOutcome::kNone);
    EXPECT_EQ(c->Decide(FaultOp::kWrite, i * 4096, 4096), FaultOutcome::kNone);
  }
  EXPECT_EQ(inj.stats().transients, 0u);
}

TEST(FaultChannelTest, FailNextOpsCountsDown) {
  SimClock clock;
  FaultInjector inj(&clock, 42);
  FaultChannel* c = inj.Channel("disk.d0");
  c->FailNextOps(2);
  EXPECT_EQ(c->Decide(FaultOp::kRead, 0, 16), FaultOutcome::kTransient);
  EXPECT_EQ(c->Decide(FaultOp::kWrite, 0, 16), FaultOutcome::kTransient);
  EXPECT_EQ(c->Decide(FaultOp::kRead, 0, 16), FaultOutcome::kNone);
  EXPECT_EQ(inj.stats().transients, 2u);
}

TEST(FaultChannelTest, WindowAndKillSwitch) {
  SimClock clock;
  FaultInjector inj(&clock, 42);
  FaultChannel* c = inj.Channel("jukebox.j0");
  c->FailBetween(100, 200);
  EXPECT_EQ(c->Decide(FaultOp::kRead, 0, 16), FaultOutcome::kNone);
  clock.Advance(150);
  EXPECT_EQ(c->Decide(FaultOp::kRead, 0, 16), FaultOutcome::kTransient);
  clock.Advance(100);  // Past the window.
  EXPECT_EQ(c->Decide(FaultOp::kRead, 0, 16), FaultOutcome::kNone);
  c->KillAt(clock.Now() + 50);
  EXPECT_EQ(c->Decide(FaultOp::kRead, 0, 16), FaultOutcome::kNone);
  clock.Advance(50);
  EXPECT_EQ(c->Decide(FaultOp::kRead, 0, 16), FaultOutcome::kDeviceDown);
  EXPECT_EQ(c->Decide(FaultOp::kWrite, 0, 16), FaultOutcome::kDeviceDown);
  EXPECT_TRUE(c->dead());
}

TEST(FaultChannelTest, LatentErrorsHitReadsUntilOverwritten) {
  SimClock clock;
  FaultInjector inj(&clock, 42);
  FaultChannel* c = inj.Channel("volume.v0");
  c->AddLatentError(1000, 100);
  EXPECT_EQ(c->Decide(FaultOp::kRead, 0, 1000), FaultOutcome::kNone);
  EXPECT_EQ(c->Decide(FaultOp::kRead, 1050, 16), FaultOutcome::kMediaError);
  EXPECT_EQ(c->Decide(FaultOp::kRead, 0, 4096), FaultOutcome::kMediaError);
  // A write covering the extent remaps the bad sectors.
  c->NoteWrite(900, 400);
  EXPECT_EQ(c->LatentErrorCount(), 0u);
  EXPECT_EQ(c->Decide(FaultOp::kRead, 1050, 16), FaultOutcome::kNone);
}

TEST(FaultChannelTest, ProbabilisticFaultsAreSeedDeterministic) {
  auto roll = [](uint64_t seed) {
    SimClock clock;
    FaultInjector inj(&clock, seed);
    FaultChannel* c = inj.Channel("disk.d0");
    FaultProfile p;
    p.read_transient_p = 0.3;
    c->set_profile(p);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(c->Decide(FaultOp::kRead, 0, 16) !=
                         FaultOutcome::kNone);
    }
    return outcomes;
  };
  EXPECT_EQ(roll(7), roll(7));
  EXPECT_NE(roll(7), roll(8));
}

TEST(FaultChannelTest, ChannelStreamsIndependentOfCreationOrder) {
  SimClock clock;
  FaultProfile p;
  p.read_transient_p = 0.5;
  auto sample = [&](FaultChannel* c) {
    std::vector<bool> v;
    for (int i = 0; i < 32; ++i) {
      v.push_back(c->Decide(FaultOp::kRead, 0, 16) != FaultOutcome::kNone);
    }
    return v;
  };
  FaultInjector a(&clock, 9);
  a.Channel("disk.d0")->set_profile(p);
  a.Channel("disk.d1")->set_profile(p);
  FaultInjector b(&clock, 9);
  b.Channel("disk.d1")->set_profile(p);
  b.Channel("disk.d0")->set_profile(p);
  EXPECT_EQ(sample(a.Channel("disk.d0")), sample(b.Channel("disk.d0")));
  EXPECT_EQ(sample(a.Channel("disk.d1")), sample(b.Channel("disk.d1")));
}

TEST(RetryPolicyTest, BackoffGrowsAndSaturates) {
  RetryPolicy p;
  p.backoff_us = 1000;
  p.backoff_multiplier = 4.0;
  p.max_backoff_us = 10'000;
  EXPECT_EQ(p.BackoffFor(1), 1000u);
  EXPECT_EQ(p.BackoffFor(2), 4000u);
  EXPECT_EQ(p.BackoffFor(3), 10'000u);  // Capped.
  EXPECT_EQ(p.BackoffFor(10), 10'000u);
}

TEST(RetryPolicyTest, SeededJitterIsDeterministicAndOnlyShortens) {
  RetryPolicy plain;
  plain.backoff_us = 1000;
  plain.backoff_multiplier = 4.0;
  plain.max_backoff_us = 10'000;

  RetryPolicy jittered = plain;
  jittered.jitter = 0.5;
  jittered.jitter_seed = 0xABCDEF;
  RetryPolicy same_seed = jittered;
  RetryPolicy other_seed = jittered;
  other_seed.jitter_seed = 0x123456;

  bool any_differs = false;
  for (int retry = 1; retry <= 8; ++retry) {
    const SimTime base = plain.BackoffFor(retry);
    const SimTime j = jittered.BackoffFor(retry);
    // Jitter only shortens, never lengthens, and stays within the factor.
    EXPECT_LE(j, base);
    EXPECT_GE(j, base / 2);
    // Same seed, same schedule — bit for bit.
    EXPECT_EQ(j, same_seed.BackoffFor(retry));
    any_differs |= (other_seed.BackoffFor(retry) != j);
  }
  // Different seeds de-phase the ladder somewhere.
  EXPECT_TRUE(any_differs);
}

TEST(RetryPolicyTest, ZeroJitterIsBitIdenticalToLegacySchedule) {
  RetryPolicy legacy;
  RetryPolicy extended;
  extended.jitter = 0.0;
  extended.jitter_seed = 77;  // Ignored while jitter is 0.
  for (int retry = 0; retry <= 10; ++retry) {
    EXPECT_EQ(extended.BackoffFor(retry), legacy.BackoffFor(retry));
  }
}

TEST(RetryPolicyTest, CumulativeCapBoundsTotalStall) {
  RetryPolicy p;
  p.backoff_us = 1000;
  p.backoff_multiplier = 4.0;
  p.max_backoff_us = 100'000;
  p.max_total_backoff_us = 6000;
  // Uncapped schedule would be 1000, 4000, 16000, ... The cumulative cap
  // clips the third retry to the leftover budget and zeroes the rest.
  EXPECT_EQ(p.BackoffFor(1), 1000u);
  EXPECT_EQ(p.BackoffFor(2), 4000u);
  EXPECT_EQ(p.BackoffFor(3), 1000u);
  EXPECT_EQ(p.BackoffFor(4), 0u);
  EXPECT_EQ(p.TotalBackoffThrough(10), 6000u);
}

TEST(HealthRegistryTest, FailuresEscalateAndSuccessesHeal) {
  HealthPolicy policy;
  policy.suspect_after = 2;
  policy.quarantine_after = 4;
  policy.heal_after = 2;
  HealthRegistry health(policy);

  EXPECT_EQ(health.VolumeState(0), HealthState::kHealthy);
  health.RecordVolumeFailure(0);
  EXPECT_EQ(health.VolumeState(0), HealthState::kHealthy);
  health.RecordVolumeFailure(0);
  EXPECT_EQ(health.VolumeState(0), HealthState::kSuspect);

  // Consecutive successes heal a suspect back to healthy.
  health.RecordVolumeSuccess(0);
  health.RecordVolumeSuccess(0);
  EXPECT_EQ(health.VolumeState(0), HealthState::kHealthy);

  // Enough consecutive failures quarantine, and quarantine is sticky.
  for (int i = 0; i < policy.quarantine_after; ++i) {
    health.RecordVolumeFailure(0);
  }
  EXPECT_EQ(health.VolumeState(0), HealthState::kQuarantined);
  EXPECT_EQ(health.QuarantinedVolumes().count(0), 1u);
  for (int i = 0; i < 10; ++i) {
    health.RecordVolumeSuccess(0);
  }
  EXPECT_EQ(health.VolumeState(0), HealthState::kQuarantined);

  // Only an explicit reinstate clears it.
  health.ReinstateVolume(0);
  EXPECT_EQ(health.VolumeState(0), HealthState::kHealthy);
  EXPECT_TRUE(health.QuarantinedVolumes().empty());
  EXPECT_EQ(health.stats().quarantines, 1u);
  EXPECT_EQ(health.stats().reinstatements, 1u);
}

TEST(HealthRegistryTest, SuccessResetsTheFailureStreak) {
  HealthPolicy policy;
  policy.suspect_after = 2;
  policy.quarantine_after = 3;
  HealthRegistry health(policy);
  for (int i = 0; i < 10; ++i) {
    health.RecordVolumeFailure(1);
    health.RecordVolumeSuccess(1);
  }
  // Alternating failures never build a streak: still healthy.
  EXPECT_EQ(health.VolumeState(1), HealthState::kHealthy);
  EXPECT_TRUE(health.QuarantinedVolumes().empty());
}

}  // namespace
}  // namespace hl
