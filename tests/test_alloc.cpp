// Allocator-layer correctness (core/alloc.hpp, docs/memory.md):
//
//   * bucket rounding, hit/miss accounting, trim and high-water stats;
//   * ArenaScope install/restore semantics (nesting, pooling-off inertness,
//     epoch marks);
//   * tensor storage routing: pool reuse across same-shape tensors,
//     source_allocator() attribution, cross-thread free returning blocks to
//     the issuing pool;
//   * from_vector(&&) buffer adoption (zero copy, no allocator round-trip);
//   * a randomized multi-threaded alloc/free/epoch stress test with data
//     integrity checks, run under the ASan/UBSan CI matrix.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/alloc.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "perf/counters.hpp"

namespace fastchg {
namespace {

// Tests toggle the global pooling switch; restore it so test order never
// leaks allocator mode into unrelated suites (CI runs --schedule-random).
class AllocTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_ = alloc::pooling_enabled(); }
  void TearDown() override { alloc::set_pooling_enabled(prev_); }

 private:
  bool prev_ = true;
};

TEST_F(AllocTest, BucketRoundsToPowerOfTwoWithFloor) {
  EXPECT_EQ(alloc::PoolAllocator::bucket_size(1), 64u);
  EXPECT_EQ(alloc::PoolAllocator::bucket_size(64), 64u);
  EXPECT_EQ(alloc::PoolAllocator::bucket_size(65), 128u);
  EXPECT_EQ(alloc::PoolAllocator::bucket_size(1000), 1024u);
  EXPECT_EQ(alloc::PoolAllocator::bucket_size(1 << 20), 1u << 20);
  EXPECT_EQ(alloc::PoolAllocator::bucket_size((1 << 20) + 1), 1u << 21);
}

TEST_F(AllocTest, FreeListReuseIsAHit) {
  alloc::PoolAllocator pool;
  void* a = pool.allocate(100);   // miss: new 128-byte slab
  pool.deallocate(a, 100);
  void* b = pool.allocate(90);    // hit: same bucket, same block
  EXPECT_EQ(a, b);
  pool.deallocate(b, 90);

  const alloc::PoolStats st = pool.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.live_blocks, 0u);
  EXPECT_EQ(st.free_blocks, 1u);
  EXPECT_EQ(st.slab_bytes, 128u);
  EXPECT_EQ(st.high_water, 128u);
}

TEST_F(AllocTest, TrimReturnsFreeListsUpstreamAndKeepsHighWater) {
  alloc::PoolAllocator pool;
  void* a = pool.allocate(200);  // 256
  void* b = pool.allocate(300);  // 512
  pool.deallocate(a, 200);
  pool.deallocate(b, 300);
  EXPECT_EQ(pool.stats().slab_bytes, 768u);

  pool.trim();
  const alloc::PoolStats st = pool.stats();
  EXPECT_EQ(st.slab_bytes, 0u);
  EXPECT_EQ(st.free_blocks, 0u);
  EXPECT_EQ(st.high_water, 768u);  // high-water survives the trim

  // The pool still works after a trim (fresh miss).
  void* c = pool.allocate(200);
  EXPECT_EQ(pool.stats().misses, 3u);
  pool.deallocate(c, 200);
}

TEST_F(AllocTest, PoolTrimmedBytesCounterTracksTrims) {
  perf::counters().reset();
  alloc::PoolAllocator pool;
  void* a = pool.allocate(1000);
  pool.deallocate(a, 1000);
  EXPECT_EQ(perf::counters().snapshot().pool_trimmed_bytes, 0u);
  pool.trim();
  EXPECT_GE(perf::counters().snapshot().pool_trimmed_bytes, 1024u);
}

// trim() releases only the free lists: live blocks keep their slab bytes,
// and a live block freed after the trim parks on the free list as usual.
TEST_F(AllocTest, TrimKeepsLiveBlocks) {
  alloc::PoolAllocator pool;
  void* live = pool.allocate(100);     // 128
  void* parked = pool.allocate(1000);  // 1024
  pool.deallocate(parked, 1000);

  pool.trim();
  alloc::PoolStats st = pool.stats();
  EXPECT_EQ(st.trimmed_bytes, 1024u);
  EXPECT_EQ(st.slab_bytes, 128u);
  EXPECT_EQ(st.live_blocks, 1u);
  EXPECT_EQ(st.live_bytes, 128u);
  EXPECT_EQ(st.free_blocks, 0u);

  pool.deallocate(live, 100);
  st = pool.stats();
  EXPECT_EQ(st.free_blocks, 1u);
  EXPECT_EQ(st.slab_bytes, 128u);
  void* again = pool.allocate(100);  // hit: the block parked above
  EXPECT_EQ(again, live);
  EXPECT_EQ(pool.stats().hits, 1u);
  pool.deallocate(again, 100);
}

// trimmed_bytes accumulates over successive trims, and a trim with empty
// free lists releases nothing and moves no counter.
TEST_F(AllocTest, TrimsAccumulateAndEmptyTrimIsNoOp) {
  perf::counters().reset();
  alloc::PoolAllocator pool;
  pool.trim();
  EXPECT_EQ(pool.stats().trimmed_bytes, 0u);
  EXPECT_EQ(perf::counters().snapshot().pool_trimmed_bytes, 0u);

  void* a = pool.allocate(200);  // 256
  pool.deallocate(a, 200);
  pool.trim();
  void* b = pool.allocate(3000);  // 4096
  pool.deallocate(b, 3000);
  pool.trim();
  pool.trim();
  const alloc::PoolStats st = pool.stats();
  EXPECT_EQ(st.trimmed_bytes, 256u + 4096u);
  EXPECT_EQ(st.slab_bytes, 0u);
  EXPECT_EQ(st.high_water, 4096u);
  EXPECT_EQ(perf::counters().snapshot().pool_trimmed_bytes, 256u + 4096u);
}

TEST_F(AllocTest, ArenaScopeInstallsAndRestores) {
  alloc::set_pooling_enabled(true);
  const alloc::AllocatorPtr outer_default = alloc::current_allocator();
  auto pool_a = std::make_shared<alloc::PoolAllocator>();
  auto pool_b = std::make_shared<alloc::PoolAllocator>();
  {
    alloc::ArenaScope sa(pool_a);
    EXPECT_EQ(alloc::current_allocator().get(), pool_a.get());
    {
      alloc::ArenaScope sb(pool_b);
      EXPECT_EQ(alloc::current_allocator().get(), pool_b.get());
    }
    EXPECT_EQ(alloc::current_allocator().get(), pool_a.get());
  }
  EXPECT_EQ(alloc::current_allocator().get(), outer_default.get());
}

TEST_F(AllocTest, ArenaScopeMarksEpochOnExit) {
  alloc::set_pooling_enabled(true);
  auto pool = std::make_shared<alloc::PoolAllocator>();
  EXPECT_EQ(pool->stats().epochs, 0u);
  { alloc::ArenaScope s(pool); }
  { alloc::ArenaScope s(pool); }
  EXPECT_EQ(pool->stats().epochs, 2u);
}

TEST_F(AllocTest, PoolingDisabledFallsBackToSystemAndScopesAreInert) {
  alloc::set_pooling_enabled(false);
  EXPECT_EQ(alloc::current_allocator().get(), alloc::system_allocator().get());

  auto pool = std::make_shared<alloc::PoolAllocator>();
  {
    alloc::ArenaScope s(pool);
    EXPECT_EQ(alloc::current_allocator().get(),
              alloc::system_allocator().get());
    Tensor t = Tensor::empty({8});
    EXPECT_EQ(t.source_allocator(), alloc::system_allocator().get());
  }
  EXPECT_EQ(pool->stats().misses, 0u);
}

TEST_F(AllocTest, TensorStorageRecyclesThroughScopePool) {
  alloc::set_pooling_enabled(true);
  auto pool = std::make_shared<alloc::PoolAllocator>();
  alloc::ArenaScope s(pool);

  const float* first_data = nullptr;
  {
    Tensor t = Tensor::empty({256});
    EXPECT_EQ(t.source_allocator(), pool.get());
    first_data = t.data();
  }
  const std::uint64_t hits_before = pool->stats().hits;
  Tensor u = Tensor::empty({256});
  EXPECT_EQ(u.data(), first_data);  // same block re-served
  EXPECT_GT(pool->stats().hits, hits_before);
}

TEST_F(AllocTest, BlocksFreedOutsideScopeReturnToTheirPool) {
  alloc::set_pooling_enabled(true);
  auto pool = std::make_shared<alloc::PoolAllocator>();
  Tensor t;
  {
    alloc::ArenaScope s(pool);
    t = Tensor::empty({64});
  }
  // Freed after the scope ended -- the block still goes back to `pool`
  // (Storage holds the issuing AllocatorPtr), not to the current default.
  const std::uint64_t live_before = pool->stats().live_blocks;
  t = Tensor();
  EXPECT_LT(pool->stats().live_blocks, live_before);
  EXPECT_GT(pool->stats().free_blocks, 0u);
}

TEST_F(AllocTest, CrossThreadFreeReturnsToIssuingPool) {
  alloc::set_pooling_enabled(true);
  auto pool = std::make_shared<alloc::PoolAllocator>();
  Tensor t;
  {
    alloc::ArenaScope s(pool);
    t = Tensor::full({128}, 3.0f);
  }
  std::thread reaper([&t] { t = Tensor(); });
  reaper.join();
  const alloc::PoolStats st = pool->stats();
  EXPECT_EQ(st.live_blocks, 0u);
  EXPECT_GT(st.free_blocks, 0u);
}

TEST_F(AllocTest, PoolOutlivesItsHandleWhileBlocksLive) {
  alloc::set_pooling_enabled(true);
  Tensor t;
  {
    auto pool = std::make_shared<alloc::PoolAllocator>();
    alloc::ArenaScope s(pool);
    t = Tensor::full({512}, 7.0f);
  }
  // The only named handle is gone; the tensor's storage keeps the pool
  // alive, so reading and releasing is safe (ASan would flag a UAF here).
  EXPECT_EQ(t.data()[0], 7.0f);
  t = Tensor();
}

TEST_F(AllocTest, FromVectorMoveAdoptsBufferZeroCopy) {
  // from_vector(&&) adopts the vector's buffer only when it already meets
  // the 64-byte arena contract, and copies it otherwise.  malloc decides
  // which case a vector lands in, so hold vectors of varied sizes until
  // one of each kind turns up.
  std::vector<std::vector<float>> held;
  held.reserve(256);  // no reallocation: the pointers below stay valid
  std::vector<float>* aligned = nullptr;
  std::vector<float>* misaligned = nullptr;
  for (std::size_t i = 0; i < 256; ++i) {
    std::vector<float>& v = held.emplace_back(1 + i % 37);
    for (std::size_t k = 0; k < v.size(); ++k) {
      v[k] = static_cast<float>(i) + 0.25f * static_cast<float>(k);
    }
    const bool on_boundary =
        reinterpret_cast<std::uintptr_t>(v.data()) % alloc::kArenaAlign == 0;
    if (on_boundary && aligned == nullptr) aligned = &v;
    if (!on_boundary && misaligned == nullptr) misaligned = &v;
    if (aligned != nullptr && misaligned != nullptr) break;
  }
  ASSERT_NE(aligned, nullptr) << "no 64-byte-aligned vector among 256";
  ASSERT_NE(misaligned, nullptr) << "no misaligned vector among 256";

  const std::vector<float> want_a = *aligned;
  const float* buf_a = aligned->data();
  const auto na = static_cast<index_t>(want_a.size());
  Tensor a = Tensor::from_vector(std::move(*aligned), {na});
  EXPECT_EQ(a.data(), buf_a);                // same buffer, no copy
  EXPECT_EQ(a.source_allocator(), nullptr);  // adopted, not allocator-backed
  ASSERT_EQ(a.numel(), na);
  for (index_t k = 0; k < na; ++k) EXPECT_EQ(a.data()[k], want_a[k]);

  const std::vector<float> want_m = *misaligned;
  const float* buf_m = misaligned->data();
  const auto nm = static_cast<index_t>(want_m.size());
  Tensor m = Tensor::from_vector(std::move(*misaligned), {nm});
  EXPECT_NE(m.data(), buf_m);  // copied
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % alloc::kArenaAlign,
            0u);
  EXPECT_NE(m.source_allocator(), nullptr);  // allocator-backed copy
  ASSERT_EQ(m.numel(), nm);
  for (index_t k = 0; k < nm; ++k) EXPECT_EQ(m.data()[k], want_m[k]);
}

TEST_F(AllocTest, FromVectorMoveTracksLogicalBytes) {
  const std::uint64_t before = perf::counters().snapshot().bytes_live;
  {
    std::vector<float> v(1024, 1.0f);
    Tensor t = Tensor::from_vector(std::move(v), {1024});
    EXPECT_EQ(perf::counters().snapshot().bytes_live,
              before + tensor_bytes(1024));
  }
  EXPECT_EQ(perf::counters().snapshot().bytes_live, before);
}

TEST_F(AllocTest, FromVectorMoveRejectsShapeMismatch) {
  std::vector<float> v(5, 0.0f);
  EXPECT_THROW(Tensor::from_vector(std::move(v), {2, 3}), Error);
}

TEST_F(AllocTest, CountersSeePoolTraffic) {
  alloc::set_pooling_enabled(true);
  perf::counters().reset();
  auto pool = std::make_shared<alloc::PoolAllocator>();
  void* a = pool->allocate(100);
  pool->deallocate(a, 100);
  void* b = pool->allocate(100);
  pool->deallocate(b, 100);

  const perf::Counters c = perf::counters().snapshot();
  EXPECT_GE(c.pool_misses, 1u);
  EXPECT_GE(c.pool_hits, 1u);
  EXPECT_GE(c.system_allocs, 1u);  // the miss went upstream
  EXPECT_GE(c.pool_slab_bytes, 128u);
  EXPECT_GE(c.pool_high_water, c.pool_slab_bytes);
}

TEST_F(AllocTest, CountersResetClearsFlowAndRebasesHighWater) {
  auto pool = std::make_shared<alloc::PoolAllocator>();
  void* a = pool->allocate(100);
  pool->deallocate(a, 100);
  void* b = pool->allocate(100);  // one hit on the books
  pool->deallocate(b, 100);

  perf::counters().reset();
  const perf::Counters c = perf::counters().snapshot();
  EXPECT_EQ(c.pool_hits, 0u);
  EXPECT_EQ(c.pool_misses, 0u);
  EXPECT_EQ(c.system_allocs, 0u);
  // Slabs survive the reset; the high-water mark rebases onto them.
  EXPECT_EQ(c.pool_high_water, c.pool_slab_bytes);
}

// Randomized multi-threaded stress: several threads hammer one shared pool
// plus their own scopes with interleaved alloc/free/epoch/trim, each block
// filled with a thread-unique pattern that is verified before release.
// Recycled-block aliasing, double frees, or size-class mixups show up as
// pattern corruption (and as ASan/UBSan reports in the sanitizer matrix).
TEST_F(AllocTest, MultiThreadedRandomizedStress) {
  alloc::set_pooling_enabled(true);
  auto shared_pool = std::make_shared<alloc::PoolAllocator>();
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;

  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &shared_pool, &failures] {
      Rng rng(1234u + static_cast<std::uint64_t>(t));
      struct Block {
        void* p;
        std::size_t bytes;
        unsigned char tag;
      };
      std::vector<Block> held;
      const auto check_and_free = [&](std::size_t i) {
        Block blk = held[i];
        held[i] = held.back();
        held.pop_back();
        const auto* bytes = static_cast<unsigned char*>(blk.p);
        for (std::size_t k = 0; k < blk.bytes; ++k) {
          if (bytes[k] != blk.tag) {
            failures[static_cast<std::size_t>(t)] =
                "pattern corruption in recycled block";
            break;
          }
        }
        shared_pool->deallocate(blk.p, blk.bytes);
      };
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int choice = static_cast<int>(rng.randint(0, 100));
        if (choice < 55 || held.empty()) {
          const auto bytes =
              static_cast<std::size_t>(rng.randint(1, 4096));
          void* p = shared_pool->allocate(bytes);
          const auto tag = static_cast<unsigned char>(
              (t + op) % 251);
          std::memset(p, tag, bytes);
          held.push_back({p, bytes, tag});
        } else if (choice < 90) {
          check_and_free(static_cast<std::size_t>(
              rng.randint(0, static_cast<index_t>(held.size()) - 1)));
        } else if (choice < 97) {
          shared_pool->end_epoch();
        } else {
          // Periodic trim races against concurrent alloc/free.
          shared_pool->trim();
        }
      }
      while (!held.empty()) check_and_free(held.size() - 1);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& f : failures) EXPECT_EQ(f, "");

  const alloc::PoolStats st = shared_pool->stats();
  EXPECT_EQ(st.live_blocks, 0u);
  EXPECT_EQ(st.live_bytes, 0u);
  EXPECT_GT(st.hits + st.misses, 0u);
}

}  // namespace
}  // namespace fastchg
