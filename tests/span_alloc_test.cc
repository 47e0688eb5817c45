// Zero-allocation test for span recording. This binary replaces the global
// operator new (every form, so new and delete stay paired under the
// sanitizers) with one that counts, and checks that once a tracer is warm —
// its names interned, its ring full and its open-span stack at full depth —
// recording a demand-fetch tree allocates nothing, through the root tracer
// and through a view tracer alike.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/sim_clock.h"
#include "util/span.h"

namespace {

uint64_t g_allocations = 0;

void* Allocate(std::size_t n) {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  ++g_allocations;
  const std::size_t a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, n == 0 ? a : (n + a - 1) / a * a);
}

void* OrThrow(void* p) {
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return OrThrow(Allocate(n)); }
void* operator new[](std::size_t n) { return OrThrow(Allocate(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return OrThrow(AllocateAligned(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return OrThrow(AllocateAligned(n, a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hl {
namespace {

// One tree through `t`: a span annotated with an integer and a name, a
// child closed by its scope, a device span annotated after the fact, an
// instant, and a five-argument span (antientropy_round, the widest in the
// catalogue).
void RecordTree(SimClock* clock, SpanTracer* t) {
  const SpanId outer = t->Begin("demand_fetch", "service");
  t->Annotate(outer, "tseg", uint32_t{7});
  t->Annotate(outer, "tenant", "alice");
  {
    SpanScope fetch(t, "fetch", "io");
    fetch.Annotate("tseg", 7);
    const SpanId swap = t->AddComplete("media_swap", "jukebox", t->current(),
                                       clock->Now(), clock->Now() + 10);
    t->Annotate(swap, "slot", 3);
    t->Annotate(swap, "drive", "d1");
    t->Instant("crc_mismatch", "io", "tseg", 7, "volume", 2);
    clock->Advance(10);
  }
  const SpanId round = t->Begin("antientropy_round", "site");
  t->Annotate(round, "src", "siteA");
  t->Annotate(round, "dst", "siteB");
  t->Annotate(round, "compared", uint64_t{18});
  t->Annotate(round, "divergent", -3);
  t->Annotate(round, "shipped", size_t{2});
  t->End(round);
  t->End(outer);
}

TEST(SpanAllocTest, WarmTracersRecordWithoutAllocating) {
  SimClock clock;
  SpanTracer root(&clock, 64);
  SpanTracer view(&root, "shard0.");
  // Warm-up: every name interned, every view track mapped, the ring full.
  for (int i = 0; i < 16; ++i) {
    RecordTree(&clock, &root);
    RecordTree(&clock, &view);
  }
  ASSERT_EQ(root.Completed().size(), root.capacity());
  // The round completes just before its parent, the tree's last record.
  const SpanRecord& widest = root.Completed()[root.capacity() - 2];
  ASSERT_EQ(widest.name, "antientropy_round");
  ASSERT_EQ(widest.track, "shard0.site");
  ASSERT_EQ(widest.args.size(), 5u);

  const uint64_t before = g_allocations;
  for (int i = 0; i < 64; ++i) {
    RecordTree(&clock, &root);
    RecordTree(&clock, &view);
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_TRUE(root.quiescent());
}

}  // namespace
}  // namespace hl
