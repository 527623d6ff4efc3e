// Kernel-level threading: a tiny persistent thread pool with an OpenMP-style
// parallel_for, and the one size rule every threaded kernel goes through.
//
// Kernels call parallel_rows(rows, work_per_row, fn).  Below
// kParallelMinWork units of work the whole range runs inline on the caller,
// so small shapes (a two-atom structure, most kernels of a serve
// micro-batch) never pay a pool wake-up; above it the rows are split across
// the workers.  A unit is one element of a memory-bound element-wise or
// gather pass; the weights below convert the other families into units.
// These constants are the only knobs: there is no environment variable or
// config field for them.
//
// Every kernel splits only dimensions whose outputs are independent (rows,
// or for the scatter-add whole column blocks), so results are bit-identical
// at any thread count.  On a single-core host (or FASTCHG_NUM_THREADS=1)
// everything runs inline.
#pragma once

#include <algorithm>
#include <functional>

#include "core/tensor.hpp"

namespace fastchg {

/// Work below which parallel_rows runs inline.  On bench_ops shapes a
/// threaded [2904, 64] add (186 K units) ran 0.94x its serial time and a
/// threaded [2904, 32] gather (93 K) 1.4x, while a [9830, 32] gather
/// (315 K) ran 0.76x.
inline constexpr index_t kParallelMinWork = index_t{1} << 17;

/// GEMM multiply-adds per unit: a register-tiled multiply-add cost about
/// 1/5 of an add's element pass, so GEMMs thread from 1 M multiply-adds.
inline constexpr index_t kMacsPerWorkUnit = 8;

/// Units per output element of the gated activation (two layernorm
/// statistics and two sigmoids per element: about 12x an add's pass).
inline constexpr index_t kGatedActUnitsPerElement = 8;

/// Smallest chunk of work parallel_rows hands to one worker.
inline constexpr index_t kMinChunkWork = kParallelMinWork / 8;

/// Current worker count (>= 1).  Initialized from FASTCHG_NUM_THREADS, else
/// std::thread::hardware_concurrency().
int num_threads();

/// Override the worker count (rebuilds the pool; not thread-safe with
/// concurrent parallel_for calls).
void set_num_threads(int n);

/// Invoke fn(begin_i, end_i) over a partition of [begin, end).  Ranges are
/// contiguous, disjoint, and cover the interval exactly.  Runs inline when
/// the range is shorter than `grain` or only one worker exists; every run
/// that goes to the pool counts one perf::Counters::pool_dispatches.
///
/// If a chunk throws, the first exception is kept, no further chunk starts,
/// the chunks already running finish, and the exception is rethrown on the
/// caller.
///
/// Nesting is safe: a parallel_for issued from inside a worker chunk runs
/// its whole range inline on that worker instead of re-entering the shared
/// pool.
void parallel_for(index_t begin, index_t end, index_t grain,
                  const std::function<void(index_t, index_t)>& fn);

/// The size rule: fn(lo, hi) over a partition of [0, rows), inline when
/// rows * work_per_row < kParallelMinWork, otherwise on the pool in chunks
/// of at least kMinChunkWork.  Shape checks belong before the call.
template <class F>
void parallel_rows(index_t rows, index_t work_per_row, const F& fn) {
  if (rows <= 0) return;
  const index_t per_row = std::max<index_t>(1, work_per_row);
  if (rows * per_row < kParallelMinWork) {
    fn(index_t{0}, rows);
    return;
  }
  parallel_for(0, rows, (kMinChunkWork + per_row - 1) / per_row,
               std::cref(fn));
}

/// True while the calling thread is executing inside a parallel_for chunk
/// scheduled on the pool (nested parallel_for calls run inline then).
bool in_parallel_region();

}  // namespace fastchg
