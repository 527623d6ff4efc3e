// Performance accounting: kernel-launch counter and tensor-memory tracker.
//
// The paper evaluates its system optimizations partly through (i) the number
// of launched CUDA kernels (Fig. 8b) and (ii) GPU memory usage (Fig. 8c).
// On our CPU substrate every primitive tensor operation plays the role of a
// kernel launch: a fused op calls count_kernel() once, a naive op-by-op
// composition calls it once per primitive.  Tensor storage allocation /
// deallocation is routed through the memory tracker so live and peak bytes
// (including autograd intermediates) can be reported per iteration.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace fastchg::perf {

/// Global counters.  All mutation goes through the free functions below,
/// which serialize on an internal mutex: the serve layer runs independent
/// micro-batches on pool workers concurrently, so kernel launches, tensor
/// allocations and robustness events may fire from several threads at once.
/// Direct field reads are only safe when no parallel section is running
/// (benches and tests read between repetitions, which is fine).
struct Counters {
  std::uint64_t kernel_launches = 0;
  std::uint64_t bytes_live = 0;
  std::uint64_t bytes_peak = 0;
  std::uint64_t alloc_count = 0;
  // Allocator-layer accounting (core/alloc.hpp, docs/memory.md).  Unlike
  // bytes_live/bytes_peak -- which track *logical* tensor bytes regardless
  // of allocator -- these describe physical behavior: system_allocs counts
  // real heap allocations made through the Allocator layer (the
  // mallocs_per_step metric), pool_hits/pool_misses classify pooled
  // requests, and pool_slab_bytes/pool_high_water aggregate slab memory
  // held from the system across every pool in the process.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t system_allocs = 0;
  std::uint64_t pool_slab_bytes = 0;
  std::uint64_t pool_high_water = 0;
  /// Slab bytes returned upstream by PoolAllocator::trim(), aggregated
  /// across every pool in the process (docs/memory.md).
  std::uint64_t pool_trimmed_bytes = 0;
  // Always 0: every step runs eager, so nothing is replayed or fused away.
  // The fields stay because bench/e2e reads them for its `replay.hit_rate`
  // and `fuse.kernel_frac` rows.
  std::uint64_t replay_hits = 0;
  std::uint64_t replay_misses = 0;
  std::uint64_t fuse_kernels_removed = 0;
  // Per-op-name launch counts (for attribution tables in benches).
  std::map<std::string, std::uint64_t> per_op;
  bool per_op_enabled = false;
  // Robustness events (serve-layer fallbacks, MD watchdog trips, retries);
  // always on -- these fire orders of magnitude less often than kernels.
  std::map<std::string, std::uint64_t> events;

  /// Copy of the current accounting state.  Benches snapshot before and
  /// after a repetition to attribute counts to exactly that repetition.
  /// Takes the counter mutex so a snapshot is consistent even while pool
  /// workers are still recording.
  Counters snapshot() const;
  /// Reset everything a bench repetition accumulates: kernel launches,
  /// per-op map, allocation count, events, pool hit/miss/system-alloc
  /// counts, and the watermarks (bytes_peak rebased to the currently live
  /// bytes, pool_high_water to the currently held slab bytes -- live
  /// allocations and warm slabs still exist).  Without this, repetition 1
  /// inherits repetition 0's counts.  Runs under the same mutex as every
  /// mutation, so a reset can't tear pool statistics mid-update.
  void reset();
};

Counters& counters();

/// Record one "kernel launch" for op `name`.
void count_kernel(const char* name);

void track_alloc(std::uint64_t bytes);
void track_free(std::uint64_t bytes);

/// Allocator-layer hooks (called by core/alloc.cpp only).
void track_system_alloc();               ///< one real heap allocation
void track_pool_hit();                   ///< pooled request served by a free list
void track_pool_miss();                  ///< pooled request that went upstream
void track_pool_slab(std::int64_t delta);  ///< slab bytes acquired (+) / trimmed (-)
void track_pool_trim(std::uint64_t bytes); ///< slab bytes released by a trim

/// Record `n` occurrences of a robustness event (e.g. "serve.fp32_fallback",
/// "md.dt_halved").  See docs/serving.md for the event vocabulary.
void count_event(const char* name, std::uint64_t n = 1);
/// Occurrences recorded for `name` (0 when never fired).
std::uint64_t event_count(const std::string& name);
/// Clear the event map.
void reset_events();

/// Reset launch counter and per-op map (memory counters are left alone).
void reset_kernels();
/// Reset the peak-memory watermark to the current live bytes.
void reset_peak();
/// Enable/disable per-op attribution (small map overhead when on).
void set_per_op(bool enabled);

/// What the trainer, DP trainer and serve engine return from
/// `replay_cache()`, and the serve engine from `cache()`.  Its only reader
/// is bench/e2e, which reports `replay.hits` and `serve.cache_hit_rate`;
/// every step runs eager and nothing is cached, so both read 0.
struct ReplayCacheStub {
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const { return {}; }
};

}  // namespace fastchg::perf
