// Pluggable tensor-memory allocators: tracked system malloc, a size-bucketed
// recycling pool, and RAII arena scopes (docs/memory.md).
//
// Motivation (paper Fig. 8c): the trainer, every virtual device in
// DataParallelTrainer, and the serve micro-batcher rebuild the same graph
// shapes thousands of times, yet the seed implementation paid one heap
// allocation (plus a shared_ptr control block) per op output, every step.
// PyTorch-style caching allocators fix this by recycling freed blocks
// instead of returning them to the OS; this header is that layer.
//
// Design:
//   * `Allocator` is the byte-level interface Tensor storage (and the
//     autograd Node headers, via `StlAdapter` + allocate_shared) draw from.
//   * `SystemAllocator` is the seed behavior: every allocate() is a real
//     heap allocation, counted in perf::counters().system_allocs -- the
//     "mallocs per step" metric the perf gate watches.
//   * `PoolAllocator` rounds requests up to power-of-two buckets and keeps
//     freed blocks on per-bucket free lists; a steady-state step whose
//     shapes repeat is served entirely from the lists (pool_hits), never
//     touching the system allocator.  Slabs persist across steps.
//   * Every block remembers its source allocator via a shared_ptr
//     (`AllocatorPtr`), so (i) a block freed on another thread returns to
//     the pool that owns it -- never cross-pollinating a foreign pool --
//     and (ii) a pool cannot die before its last outstanding block,
//     whatever the destruction order of trainers, engines, and models.
//   * `ArenaScope` installs an allocator as the calling thread's current
//     one for its lifetime (nestable), emits a "mem.arena" trace span, and
//     marks a pool epoch on exit: the step-scoped lifetime the trainer,
//     the per-device loops, and the serve workers wrap around hot regions.
//
// Pooling is on by default; FASTCHG_ALLOC=system (or set_pooling_enabled)
// restores the seed allocator globally -- bit-exactness between the two
// modes is asserted by tests and bench_memory_arena, since the allocator
// changes where bytes live, never their values.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "perf/trace.hpp"

namespace fastchg::alloc {

/// Every allocator in this header returns 64-byte-aligned blocks *by
/// construction*: SystemAllocator uses aligned operator new, and pool
/// buckets are power-of-two multiples of kMinBlock (= 64) carved from
/// upstream, so recycling preserves the alignment.  The SIMD op library
/// (src/ops/) treats this as a performance contract -- a full cache line /
/// AVX-512-ready vector per arena block -- not a correctness requirement
/// (kernels use unaligned loads); debug builds assert it on every pool
/// return path.
inline constexpr std::size_t kArenaAlign = 64;

/// Byte-level allocation interface.  `deallocate` must receive the same
/// `bytes` the matching `allocate` was called with (the pool re-derives the
/// bucket from it).  Implementations are thread-safe.
class Allocator {
 public:
  virtual ~Allocator() = default;
  virtual void* allocate(std::size_t bytes) = 0;
  virtual void deallocate(void* p, std::size_t bytes) = 0;
  virtual const char* name() const = 0;
};

/// Shared handle: blocks hold one, so an allocator outlives every block it
/// issued regardless of owner destruction order.
using AllocatorPtr = std::shared_ptr<Allocator>;

/// The seed path: one tracked heap allocation per request.  Counts every
/// allocate() into perf::counters().system_allocs (the mallocs_per_step
/// numerator); also the upstream the pools draw slabs from.
class SystemAllocator final : public Allocator {
 public:
  void* allocate(std::size_t bytes) override;
  void deallocate(void* p, std::size_t bytes) override;
  const char* name() const override { return "system"; }
};

/// Process-wide SystemAllocator singleton.
AllocatorPtr system_allocator();

/// Point-in-time accounting of one pool (all byte figures are in rounded
/// bucket sizes, i.e. actual slab bytes, not logical tensor bytes).
struct PoolStats {
  std::uint64_t hits = 0;         ///< allocations served from a free list
  std::uint64_t misses = 0;       ///< allocations that went upstream
  std::uint64_t live_blocks = 0;  ///< blocks currently handed out
  std::uint64_t live_bytes = 0;
  std::uint64_t free_blocks = 0;  ///< blocks parked on the free lists
  std::uint64_t free_bytes = 0;
  std::uint64_t slab_bytes = 0;   ///< live + free: bytes held from upstream
  std::uint64_t high_water = 0;   ///< peak slab_bytes over the pool's life
  std::uint64_t trimmed_bytes = 0;  ///< slab bytes returned upstream by trims
  std::uint64_t epochs = 0;       ///< ArenaScope exits observed
};

/// Size-bucketed recycling allocator.  allocate() rounds to the next power
/// of two (>= kMinBlock) and pops the bucket's free list when possible;
/// deallocate() pushes the block back instead of freeing it.  All methods
/// are mutex-guarded: blocks may be freed from any thread (the prefetch
/// thread collates batches the main thread releases; serve workers tear
/// down graphs whose leaves the caller allocated).
class PoolAllocator final : public Allocator {
 public:
  static constexpr std::size_t kMinBlock = 64;
  /// Requests above this bypass the buckets entirely (rare one-off giants
  /// would otherwise pin a power-of-two slab forever).
  static constexpr std::size_t kMaxPooled = std::size_t{1} << 30;

  explicit PoolAllocator(AllocatorPtr upstream = system_allocator());
  /// Returns every free-listed slab upstream.  No live blocks can remain:
  /// each holds an AllocatorPtr keeping the pool alive until it is freed.
  ~PoolAllocator() override;

  void* allocate(std::size_t bytes) override;
  void deallocate(void* p, std::size_t bytes) override;
  const char* name() const override { return "pool"; }

  /// Return all free-listed blocks upstream (live blocks are untouched).
  void trim();
  /// Mark the end of a step-scoped epoch (ArenaScope calls this on exit).
  void end_epoch();
  PoolStats stats() const;

  /// Bucket size a request of `bytes` occupies (exposed for tests).
  static std::size_t bucket_size(std::size_t bytes);

 private:
  AllocatorPtr upstream_;
  mutable std::mutex mu_;
  std::array<std::vector<void*>, 64> free_;  ///< indexed by log2(bucket)
  PoolStats st_;
};

/// Global pooling switch, initialized from FASTCHG_ALLOC ("system" / "off" /
/// "0" disable pooling; anything else, or unset, enables it).  Read by
/// current_allocator() and ArenaScope at call time: existing blocks always
/// return to the allocator that issued them regardless of the switch.
bool pooling_enabled();
void set_pooling_enabled(bool on);

/// The calling thread's default PoolAllocator (created on first use; kept
/// alive by its blocks even after the thread exits).  Per-thread pools mean
/// serve workers and the prefetch thread recycle independently without
/// lock contention on a shared free list.
AllocatorPtr thread_pool();

/// Allocator new tensor storage on this thread draws from right now: the
/// innermost ArenaScope's allocator, else the thread pool (pooling on),
/// else the system allocator.
AllocatorPtr current_allocator();

/// RAII step scope: installs `a` (default: the thread pool) as the calling
/// thread's current allocator, records a "mem.arena" trace span for the
/// scope's extent, and marks a pool epoch on exit.  Nestable; inert when
/// pooling is disabled.  Blocks may outlive the scope -- the scope bounds
/// *where recycling happens*, not block lifetime.
class ArenaScope {
 public:
  ArenaScope();
  explicit ArenaScope(AllocatorPtr a);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  perf::TraceSpan span_;
  AllocatorPtr prev_;
  AllocatorPtr installed_;
  bool active_ = false;
};

/// Minimal STL allocator over the current Allocator, so shared control
/// blocks (tensor Storage headers, autograd Nodes) ride the pool too via
/// std::allocate_shared -- in steady state an op output costs zero system
/// allocations: data block and header are both free-list hits.
template <class T>
struct StlAdapter {
  using value_type = T;

  explicit StlAdapter(AllocatorPtr alloc) : a(std::move(alloc)) {}
  template <class U>
  StlAdapter(const StlAdapter<U>& o) : a(o.a) {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    return static_cast<T*>(a->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) { a->deallocate(p, n * sizeof(T)); }

  template <class U>
  bool operator==(const StlAdapter<U>& o) const { return a == o.a; }
  template <class U>
  bool operator!=(const StlAdapter<U>& o) const { return !(*this == o); }

  AllocatorPtr a;
};

}  // namespace fastchg::alloc
