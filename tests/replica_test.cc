// Tests for the section 5.4 replica variant: extra copies of tertiary
// segments on other volumes, demand reads served by the "closest" copy.

#include <gtest/gtest.h>

#include <span>

#include "highlight/highlight.h"
#include "util/rng.h"

namespace hl {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return v;
}

class ReplicaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HighLightConfig config;
    config.disks.push_back({Rz57Profile(), 8 * 1024});
    JukeboxProfile j = Hp6300MoProfile();
    j.num_slots = 4;
    j.volume_capacity_bytes = 16ull * 64 * kBlockSize;
    config.jukeboxes.push_back({j, false, 16});
    config.lfs.seg_size_blocks = 64;
    config.lfs.cache_max_segments = 8;
    auto hl = HighLightFs::Create(config, &clock_);
    ASSERT_TRUE(hl.ok());
    hl_ = std::move(*hl);
  }

  SimClock clock_;
  std::unique_ptr<HighLightFs> hl_;
};

TEST_F(ReplicaTest, ReplicasLandOnOtherVolumes) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, Pattern(512 * 1024, 1)).ok());
  MigratorOptions opts;
  opts.replicas = 1;
  Result<MigrationReport> r = hl_->Internals().migrator.MigrateFiles({*ino}, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->segments_completed, 0u);

  // Every primary segment has one replica, on a different volume, flagged
  // kSegReplica and never counted as live.
  uint32_t replicas_found = 0;
  for (uint32_t t = 0; t < hl_->Internals().tseg_table.size(); ++t) {
    const SegUsage& u = hl_->Internals().tseg_table.Get(t);
    if (!(u.flags & kSegReplica)) {
      continue;
    }
    ++replicas_found;
    EXPECT_EQ(u.live_bytes, 0u);
    EXPECT_NE(hl_->Internals().address_map.VolumeOfTseg(t),
              hl_->Internals().address_map.VolumeOfTseg(u.cache_tseg));
    std::vector<uint32_t> reps =
        hl_->Internals().tseg_table.ReplicasOf(u.cache_tseg);
    EXPECT_NE(std::find(reps.begin(), reps.end(), t), reps.end());
  }
  EXPECT_EQ(replicas_found, r->segments_completed);
}

TEST_F(ReplicaTest, FetchPrefersMountedReplicaVolume) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  auto data = Pattern(256 * 1024, 2);
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, data).ok());
  MigratorOptions opts;
  opts.replicas = 1;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({*ino}, opts).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  // Mount the REPLICA's volume by touching it directly, then unmount... the
  // sim keeps volumes in drives until swapped; reading another volume's
  // data through drive 1 loads it. Find the replica volume and read a byte
  // from it so it occupies the read drive.
  uint32_t replica_vol = kNoSegment;
  for (uint32_t t = 0; t < hl_->Internals().tseg_table.size(); ++t) {
    if (hl_->Internals().tseg_table.Get(t).flags & kSegReplica) {
      replica_vol = hl_->Internals().address_map.VolumeOfTseg(t);
      break;
    }
  }
  ASSERT_NE(replica_vol, kNoSegment);
  std::vector<uint8_t> sector(4096);
  ASSERT_TRUE(hl_->Internals().footprint
                  .Read(static_cast<int>(replica_vol), 0, sector)
                  .ok());
  ASSERT_TRUE(*hl_->Internals().footprint.VolumeMounted(static_cast<int>(replica_vol)));

  // Now demand-fetch the file: the replica volume is mounted, the primary's
  // is not necessarily, so replica reads should occur and data must match.
  uint64_t replica_reads_before = hl_->Internals().io_server.stats().replica_reads;
  std::vector<uint8_t> out(data.size());
  Result<size_t> n = hl_->fs().Read(*ino, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, data);
  EXPECT_GT(hl_->Internals().io_server.stats().replica_reads, replica_reads_before);
}

TEST_F(ReplicaTest, ReplicaContentsIdenticalToPrimary) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, Pattern(128 * 1024, 3)).ok());
  MigratorOptions opts;
  opts.replicas = 1;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({*ino}, opts).ok());

  for (uint32_t t = 0; t < hl_->Internals().tseg_table.size(); ++t) {
    const SegUsage& u = hl_->Internals().tseg_table.Get(t);
    if (!(u.flags & kSegReplica)) {
      continue;
    }
    uint64_t seg_bytes = hl_->Internals().address_map.SegBytes();
    std::vector<uint8_t> primary_img(seg_bytes), replica_img(seg_bytes);
    uint32_t pvol = hl_->Internals().address_map.VolumeOfTseg(u.cache_tseg);
    uint32_t rvol = hl_->Internals().address_map.VolumeOfTseg(t);
    ASSERT_TRUE(hl_->Internals().footprint
                    .Read(static_cast<int>(pvol),
                          hl_->Internals().address_map.ByteOffsetOnVolume(u.cache_tseg),
                          primary_img)
                    .ok());
    ASSERT_TRUE(hl_->Internals().footprint
                    .Read(static_cast<int>(rvol),
                          hl_->Internals().address_map.ByteOffsetOnVolume(t),
                          replica_img)
                    .ok());
    EXPECT_EQ(primary_img, replica_img);
  }
}

TEST_F(ReplicaTest, ReplicaCatalogSurvivesRemount) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, Pattern(128 * 1024, 4)).ok());
  MigratorOptions opts;
  opts.replicas = 1;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({*ino}, opts).ok());
  ASSERT_TRUE(hl_->fs().Checkpoint().ok());

  uint32_t replicas_before = 0;
  for (uint32_t t = 0; t < hl_->Internals().tseg_table.size(); ++t) {
    if (hl_->Internals().tseg_table.Get(t).flags & kSegReplica) {
      ++replicas_before;
    }
  }
  ASSERT_GT(replicas_before, 0u);
  ASSERT_TRUE(hl_->Remount().ok());
  uint32_t replicas_after = 0;
  for (uint32_t t = 0; t < hl_->Internals().tseg_table.size(); ++t) {
    if (hl_->Internals().tseg_table.Get(t).flags & kSegReplica) {
      ++replicas_after;
    }
  }
  EXPECT_EQ(replicas_after, replicas_before);
}

TEST_F(ReplicaTest, CleaningPrimaryVolumeReleasesOrphanReplicas) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, Pattern(256 * 1024, 5)).ok());
  MigratorOptions opts;
  opts.replicas = 1;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({*ino}, opts).ok());

  // The primary copies live on volume 0; clean it.
  ASSERT_TRUE(hl_->Internals().tertiary_cleaner.CleanVolume(0).ok());
  // No replica may still reference a segment on the cleaned volume.
  for (uint32_t t = 0; t < hl_->Internals().tseg_table.size(); ++t) {
    const SegUsage& u = hl_->Internals().tseg_table.Get(t);
    if (u.flags & kSegReplica) {
      EXPECT_NE(hl_->Internals().address_map.VolumeOfTseg(u.cache_tseg), 0u)
          << "orphan replica " << t;
    }
  }
  // Data remain readable.
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  std::vector<uint8_t> out(256 * 1024);
  ASSERT_TRUE(hl_->fs().Read(*ino, 0, out).ok());
  EXPECT_EQ(out, Pattern(256 * 1024, 5));
}

// io.replica_reads has one definition: a read a replica copy served. A
// serial read-ahead whose closest copy is the replica counts nothing when
// that read fails, and counts once when the replica serves it.
TEST_F(ReplicaTest, ReplicaReadsCountOnlyServedReads) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, Pattern(200 * 1024, 6)).ok());
  MigratorOptions opts;
  opts.replicas = 1;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({*ino}, opts).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  auto internals = hl_->Internals();
  uint32_t primary = kNoSegment;
  uint32_t replica = kNoSegment;
  for (uint32_t t = 0; t < internals.tseg_table.size(); ++t) {
    if (internals.tseg_table.Get(t).flags & kSegReplica) {
      primary = internals.tseg_table.Get(t).cache_tseg;
      replica = t;
      break;
    }
  }
  ASSERT_NE(primary, kNoSegment);
  const int replica_vol =
      static_cast<int>(internals.address_map.VolumeOfTseg(replica));
  const uint64_t replica_offset =
      internals.address_map.ByteOffsetOnVolume(replica);
  // Reading the replica's image seats its volume, so the replica is the
  // closest copy; then its extent is poisoned.
  Result<std::vector<uint8_t>> image = hl_->ReadSegmentImage(replica);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(*internals.footprint.VolumeMounted(replica_vol));
  ASSERT_FALSE(*internals.footprint.VolumeMounted(static_cast<int>(
      internals.address_map.VolumeOfTseg(primary))));
  Result<Volume*> medium = internals.footprint.GetVolume(replica_vol);
  ASSERT_TRUE(medium.ok());
  (*medium)->fault_channel()->AddLatentError(replica_offset, kBlockSize);

  IoServer& io = internals.io_server;
  const uint64_t before = io.stats().replica_reads;
  EXPECT_EQ(io.SchedulePrefetch(primary, nullptr).code(),
            ErrorCode::kIoError);
  EXPECT_EQ(io.stats().replica_reads, before);

  // A rewrite heals the extent; the replica serves and counts once.
  ASSERT_TRUE(
      internals.footprint.RepairWrite(replica_vol, replica_offset, *image)
          .ok());
  size_t chunks = 0;
  ASSERT_TRUE(io.SchedulePrefetch(primary,
                                  [&](const Status& s, SimTime,
                                      std::span<const ChunkRef> got) {
                                    EXPECT_TRUE(s.ok());
                                    chunks = got.size();
                                  })
                  .ok());
  EXPECT_EQ(io.stats().replica_reads, before + 1);
  EXPECT_EQ(chunks, internals.address_map.SegBytes() / Chunk::kBytes);
}

}  // namespace
}  // namespace hl
