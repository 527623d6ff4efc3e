#include "core/alloc.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/error.hpp"
#include "perf/counters.hpp"

namespace fastchg::alloc {

namespace {

// Innermost ArenaScope allocator for this thread; null means "no scope" and
// current_allocator() falls through to the thread pool / system allocator.
thread_local AllocatorPtr t_current;

}  // namespace

void* SystemAllocator::allocate(std::size_t bytes) {
  perf::track_system_alloc();
  // Aligned form: the arena contract (kArenaAlign, alloc.hpp) starts here;
  // pool buckets inherit it because they are carved from these blocks.
  return ::operator new(bytes, std::align_val_t{kArenaAlign});
}

void SystemAllocator::deallocate(void* p, std::size_t /*bytes*/) {
  ::operator delete(p, std::align_val_t{kArenaAlign});
}

namespace {
[[maybe_unused]] inline bool arena_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kArenaAlign == 0;
}
}  // namespace

AllocatorPtr system_allocator() {
  static AllocatorPtr a = std::make_shared<SystemAllocator>();
  return a;
}

std::size_t PoolAllocator::bucket_size(std::size_t bytes) {
  return std::bit_ceil(std::max(bytes, kMinBlock));
}

namespace {
int bucket_index(std::size_t rounded) {
  return std::countr_zero(rounded);
}
}  // namespace

PoolAllocator::PoolAllocator(AllocatorPtr upstream)
    : upstream_(std::move(upstream)) {
  FASTCHG_CHECK(upstream_ != nullptr, "PoolAllocator requires an upstream");
}

PoolAllocator::~PoolAllocator() {
  trim();
  // Live blocks keep the pool alive via their AllocatorPtr, so reaching the
  // destructor means every block issued has been returned.
  FASTCHG_CHECK(st_.live_blocks == 0,
                "PoolAllocator destroyed with live blocks");
}

void* PoolAllocator::allocate(std::size_t bytes) {
  if (bytes > kMaxPooled) {
    // Pass-through: counted as a miss, but never bucketed.
    perf::track_pool_miss();
    std::lock_guard<std::mutex> lock(mu_);
    ++st_.misses;
    ++st_.live_blocks;
    st_.live_bytes += bytes;
    void* p = upstream_->allocate(bytes);
    assert(arena_aligned(p));
    return p;
  }
  const std::size_t sz = bucket_size(bytes);
  const int bi = bucket_index(sz);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& list = free_[bi];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      ++st_.hits;
      ++st_.live_blocks;
      st_.live_bytes += sz;
      --st_.free_blocks;
      st_.free_bytes -= sz;
      perf::track_pool_hit();
      assert(arena_aligned(p));
      return p;
    }
  }
  // Miss: grow the slab set by one block of the rounded size.  The upstream
  // call happens outside mu_ so concurrent hits aren't serialized behind it.
  void* p = upstream_->allocate(sz);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++st_.misses;
    ++st_.live_blocks;
    st_.live_bytes += sz;
    st_.slab_bytes += sz;
    if (st_.slab_bytes > st_.high_water) st_.high_water = st_.slab_bytes;
  }
  perf::track_pool_miss();
  perf::track_pool_slab(static_cast<std::int64_t>(sz));
  assert(arena_aligned(p));
  return p;
}

void PoolAllocator::deallocate(void* p, std::size_t bytes) {
  if (p == nullptr) return;
  if (bytes > kMaxPooled) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --st_.live_blocks;
      st_.live_bytes -= bytes;
    }
    upstream_->deallocate(p, bytes);
    return;
  }
  const std::size_t sz = bucket_size(bytes);
  const int bi = bucket_index(sz);
  std::lock_guard<std::mutex> lock(mu_);
  free_[bi].push_back(p);
  --st_.live_blocks;
  st_.live_bytes -= sz;
  ++st_.free_blocks;
  st_.free_bytes += sz;
}

void PoolAllocator::trim() {
  // Collect under the lock, release upstream outside it.
  std::vector<std::pair<void*, std::size_t>> blocks;
  std::uint64_t freed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < free_.size(); ++i) {
      const std::size_t sz = std::size_t{1} << i;
      for (void* p : free_[i]) {
        blocks.emplace_back(p, sz);
        freed += sz;
      }
      free_[i].clear();
    }
    st_.free_blocks = 0;
    st_.free_bytes = 0;
    st_.slab_bytes -= freed;
    st_.trimmed_bytes += freed;
  }
  for (auto& [p, sz] : blocks) upstream_->deallocate(p, sz);
  if (freed > 0) {
    perf::track_pool_slab(-static_cast<std::int64_t>(freed));
    perf::track_pool_trim(freed);
  }
}

void PoolAllocator::end_epoch() {
  std::lock_guard<std::mutex> lock(mu_);
  ++st_.epochs;
}

PoolStats PoolAllocator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return st_;
}

namespace {

bool pooling_default_from_env() {
  const char* env = std::getenv("FASTCHG_ALLOC");
  if (env == nullptr) return true;
  return std::strcmp(env, "system") != 0 && std::strcmp(env, "off") != 0 &&
         std::strcmp(env, "0") != 0;
}

std::atomic<bool>& pooling_flag() {
  static std::atomic<bool> on{pooling_default_from_env()};
  return on;
}

}  // namespace

bool pooling_enabled() {
  return pooling_flag().load(std::memory_order_relaxed);
}

void set_pooling_enabled(bool on) {
  pooling_flag().store(on, std::memory_order_relaxed);
}

AllocatorPtr thread_pool() {
  thread_local AllocatorPtr pool = std::make_shared<PoolAllocator>();
  return pool;
}

AllocatorPtr current_allocator() {
  if (t_current) return t_current;
  if (pooling_enabled()) return thread_pool();
  return system_allocator();
}

ArenaScope::ArenaScope()
    : ArenaScope(pooling_enabled() ? thread_pool() : nullptr) {}

ArenaScope::ArenaScope(AllocatorPtr a) : span_("mem.arena", "mem") {
  if (a != nullptr && pooling_enabled()) {
    installed_ = std::move(a);
    prev_ = std::exchange(t_current, installed_);
    active_ = true;
  }
}

ArenaScope::~ArenaScope() {
  if (!active_) return;
  t_current = std::move(prev_);
  if (auto* pool = dynamic_cast<PoolAllocator*>(installed_.get())) {
    pool->end_epoch();
  }
}

}  // namespace fastchg::alloc
