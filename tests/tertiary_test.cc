// Tests for volumes, the jukebox robot, and the Footprint interface.

#include <gtest/gtest.h>

#include "sim/device_profile.h"
#include "tertiary/footprint.h"
#include "tertiary/jukebox.h"
#include "tertiary/volume.h"
#include "volume_bytes.h"

namespace hl {
namespace {

std::vector<uint8_t> Fill(size_t n, uint8_t v) {
  return std::vector<uint8_t>(n, v);
}

TEST(VolumeTest, RoundTrip) {
  Volume v("t0", 1 << 20);
  auto data = Fill(4096, 0xAA);
  ASSERT_TRUE(v.Write(8192, data).ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(ReadBytes(v, 8192, out).ok());
  EXPECT_EQ(out, data);
}

TEST(VolumeTest, UnwrittenReadsZero) {
  Volume v("t0", 1 << 20);
  std::vector<uint8_t> out(512, 0xFF);
  ASSERT_TRUE(ReadBytes(v, 0, out).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST(VolumeTest, EndOfMediumOnShortCapacity) {
  Volume v("t0", 1 << 20);
  v.SetActualCapacity(8192);  // Compression fell short of nominal.
  auto data = Fill(4096, 1);
  EXPECT_TRUE(v.Write(0, data).ok());
  EXPECT_TRUE(v.Write(4096, data).ok());
  Status s = v.Write(8192, data);
  EXPECT_EQ(s.code(), ErrorCode::kEndOfMedium);
  // Nothing was written by the failed op.
  std::vector<uint8_t> out(4096, 0xFF);
  // Reading past actual (but within nominal) capacity still works and is 0.
  ASSERT_TRUE(ReadBytes(v, 8192, out).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST(VolumeTest, WormRefusesRewrite) {
  Volume v("w0", 1 << 20, /*write_once=*/true);
  auto data = Fill(4096, 2);
  ASSERT_TRUE(v.Write(0, data).ok());
  EXPECT_EQ(v.Write(0, data).code(), ErrorCode::kNotSupported);
  // A disjoint extent is fine.
  EXPECT_TRUE(v.Write(4096, data).ok());
  // Overlap is rejected too.
  EXPECT_FALSE(v.Write(6000, data).ok());
  // Erase is impossible on WORM media.
  EXPECT_EQ(v.Erase().code(), ErrorCode::kNotSupported);
}

TEST(VolumeTest, EraseResetsRewritable) {
  Volume v("t0", 1 << 20);
  ASSERT_TRUE(v.Write(0, Fill(4096, 3)).ok());
  ASSERT_TRUE(v.Erase().ok());
  EXPECT_TRUE(v.Write(0, Fill(4096, 4)).ok());
}

class JukeboxTest : public ::testing::Test {
 protected:
  JukeboxTest() : jukebox_(Hp6300MoProfile(), &clock_) {}
  SimClock clock_;
  Jukebox jukebox_;
};

TEST_F(JukeboxTest, FirstAccessPaysMediaSwap) {
  std::vector<uint8_t> out(4096);
  SimTime before = clock_.Now();
  ASSERT_TRUE(jukebox_.Read(0, 0, out).ok());
  // 13.5 s swap dominates.
  EXPECT_GT(clock_.Now() - before, 13'000'000u);
  EXPECT_EQ(jukebox_.media_swaps(), 1u);

  // Second read of the same volume: no swap.
  before = clock_.Now();
  ASSERT_TRUE(jukebox_.Read(0, 4096, out).ok());
  EXPECT_LT(clock_.Now() - before, 1'000'000u);
  EXPECT_EQ(jukebox_.media_swaps(), 1u);
}

TEST_F(JukeboxTest, WriteDriveAndReadDriveAreSeparate) {
  auto data = Fill(4096, 7);
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(jukebox_.Write(0, 0, data).ok());   // Mounts slot 0 in drive 0.
  ASSERT_TRUE(jukebox_.Read(1, 0, out).ok());     // Mounts slot 1 in drive 1.
  EXPECT_EQ(jukebox_.media_swaps(), 2u);
  // Reading the write-drive's platter does not swap anything.
  ASSERT_TRUE(jukebox_.Read(0, 0, out).ok());
  EXPECT_EQ(jukebox_.media_swaps(), 2u);
  EXPECT_EQ(out, data);
}

TEST_F(JukeboxTest, TransferRateMatchesMoProfile) {
  auto data = Fill(1 << 20, 9);
  ASSERT_TRUE(jukebox_.Write(0, 0, data).ok());  // Pays the swap.
  SimTime before = clock_.Now();
  ASSERT_TRUE(jukebox_.Write(0, 1 << 20, data).ok());
  double secs = static_cast<double>(clock_.Now() - before) / kUsPerSec;
  // 1 MB at 204 KB/s ~= 5.0 s.
  EXPECT_NEAR(secs, 1024.0 / 204.0, 0.5);
}

TEST_F(JukeboxTest, RejectsBadSlot) {
  std::vector<uint8_t> out(16);
  EXPECT_EQ(jukebox_.Read(99, 0, out).code(), ErrorCode::kOutOfRange);
}

TEST(JukeboxBusTest, SwapHogsSharedBus) {
  SimClock clock;
  Resource bus("scsi0");
  Jukebox jb(Hp6300MoProfile(), &clock, &bus);
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(jb.Read(0, 0, out).ok());
  // The swap held the bus: its free time covers the swap interval.
  EXPECT_GE(bus.free_at(), 13'500'000u);
}

TEST(FootprintTest, FlatVolumeNamespace) {
  SimClock clock;
  Jukebox a(Hp6300MoProfile(), &clock);   // 32 slots.
  Jukebox b(SonyWormProfile(), &clock, nullptr, /*write_once=*/true);
  Footprint fp({&a, &b});
  EXPECT_EQ(fp.NumVolumes(), 32 + 100);

  auto data = Fill(4096, 5);
  ASSERT_TRUE(fp.Write(0, 0, data).ok());
  ASSERT_TRUE(fp.Write(32, 0, data).ok());  // First WORM volume.
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(fp.Read(32, 0, out).ok());
  EXPECT_EQ(out, data);
  // WORM behaviour carries through the flat namespace.
  EXPECT_EQ(fp.Write(32, 0, data).code(), ErrorCode::kNotSupported);
}

TEST(FootprintTest, RejectsUnknownVolume) {
  SimClock clock;
  Jukebox a(Hp6300MoProfile(), &clock);
  Footprint fp({&a});
  EXPECT_FALSE(fp.VolumeCapacity(32).ok());
  EXPECT_FALSE(fp.Read(-1, 0, std::span<uint8_t>()).ok());
}

}  // namespace
}  // namespace hl
