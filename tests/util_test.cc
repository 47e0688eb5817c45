// Unit tests for the utility layer: Status/Result, CRC32, serialization,
// RNG, fault injection, and device health tracking.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
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
// both production kernels are checked against.
uint32_t Crc32Bytewise(std::span<const uint8_t> data, uint32_t seed = 0) {
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
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// The dispatched entry point (PCLMULQDQ folding where the CPU has it) and
// the portable slice-by-8 fallback.
struct Crc32Path {
  const char* name;
  uint32_t (*fn)(std::span<const uint8_t>, uint32_t);
};
constexpr Crc32Path kCrc32Paths[] = {{"Crc32", Crc32},
                                     {"Crc32Portable", Crc32Portable}};

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (uint8_t& b : v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return v;
}

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE).
  const char* s = "123456789";
  std::span<const uint8_t> data(reinterpret_cast<const uint8_t*>(s), 9);
  EXPECT_EQ(Crc32Bytewise(data), 0xCBF43926u);
  for (const Crc32Path& path : kCrc32Paths) {
    EXPECT_EQ(path.fn(data, 0), 0xCBF43926u) << path.name;
  }
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndOffset) {
  const std::vector<uint8_t> buf = RandomBytes(1100 + 16, 1);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      std::span<const uint8_t> data(buf.data() + offset, len);
      const uint32_t want = Crc32Bytewise(data);
      for (const Crc32Path& path : kCrc32Paths) {
        ASSERT_EQ(path.fn(data, 0), want)
            << path.name << " offset " << offset << " length " << len;
      }
    }
  }
}

TEST(Crc32Test, MatchesBytewiseOnBlockAndSegmentSizes) {
  const std::vector<uint8_t> buf = RandomBytes((1 << 20) + 16, 2);
  for (size_t len : {size_t{4096}, size_t{256} << 10, size_t{1} << 20}) {
    for (size_t offset : {0, 1, 8, 15}) {
      std::span<const uint8_t> data(buf.data() + offset, len);
      const uint32_t seed = static_cast<uint32_t>(len + offset);
      const uint32_t want = Crc32Bytewise(data, seed);
      for (const Crc32Path& path : kCrc32Paths) {
        EXPECT_EQ(path.fn(data, seed), want)
            << path.name << " offset " << offset << " length " << len;
      }
    }
  }
}

TEST(Crc32Test, ChainedCallsMatchOneShot) {
  // Every split point up to 520 bytes, so both halves cross or stop short
  // of the 16 B and 64 B fold boundaries in every combination.
  const std::vector<uint8_t> buf = RandomBytes(520, 3);
  const std::span<const uint8_t> all(buf);
  const uint32_t want = Crc32Bytewise(all);
  for (size_t split = 0; split <= all.size(); ++split) {
    for (const Crc32Path& path : kCrc32Paths) {
      ASSERT_EQ(path.fn(all.subspan(split), path.fn(all.first(split), 0)),
                want)
          << path.name << " split at " << split;
    }
  }
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
