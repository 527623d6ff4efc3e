// Unit tests for the core tensor type and the perf accounting hooks.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "autograd/ops.hpp"
#include "core/parallel_for.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "perf/counters.hpp"

namespace fastchg {
namespace {

TEST(Tensor, ZerosShapeAndValues) {
  Tensor t = Tensor::zeros({3, 4});
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 3);
  EXPECT_EQ(t.size(1), 4);
  EXPECT_EQ(t.numel(), 12);
  for (float v : t.to_vector()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FullAndScalar) {
  Tensor t = Tensor::full({2, 2}, 3.5f);
  for (float v : t.to_vector()) EXPECT_EQ(v, 3.5f);
  EXPECT_FLOAT_EQ(Tensor::scalar(-2.0f).item(), -2.0f);
}

TEST(Tensor, FromVectorRoundTrip) {
  std::vector<float> v{1, 2, 3, 4, 5, 6};
  Tensor t = Tensor::from_vector(v, {2, 3});
  EXPECT_EQ(t.to_vector(), v);
}

TEST(Tensor, FromVectorSizeMismatchThrows) {
  EXPECT_THROW(Tensor::from_vector({1, 2, 3}, {2, 2}), Error);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor t = Tensor::from_vector({1, 2, 3, 4}, {2, 2});
  Tensor r = t.reshape({4});
  EXPECT_TRUE(t.shares_storage(r));
  r.data()[0] = 9.0f;
  EXPECT_EQ(t.to_vector()[0], 9.0f);
}

TEST(Tensor, ReshapeBadNumelThrows) {
  Tensor t = Tensor::zeros({2, 2});
  EXPECT_THROW(t.reshape({3}), Error);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t = Tensor::from_vector({1, 2}, {2});
  Tensor c = t.clone();
  EXPECT_FALSE(t.shares_storage(c));
  c.data()[0] = 7.0f;
  EXPECT_EQ(t.to_vector()[0], 1.0f);
}

TEST(Tensor, AddInPlaceWithAlpha) {
  Tensor a = Tensor::from_vector({1, 2, 3}, {3});
  Tensor b = Tensor::from_vector({10, 20, 30}, {3});
  a.add_(b, 0.5f);
  EXPECT_EQ(a.to_vector(), (std::vector<float>{6, 12, 18}));
}

TEST(Tensor, MulInPlace) {
  Tensor a = Tensor::from_vector({1, -2}, {2});
  a.mul_(-3.0f);
  EXPECT_EQ(a.to_vector(), (std::vector<float>{-3, 6}));
}

TEST(Tensor, ItemRequiresSingleElement) {
  EXPECT_THROW(Tensor::zeros({2}).item(), Error);
}

TEST(Tensor, UndefinedTensorThrowsOnAccess) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW(t.data(), Error);
}

TEST(PerfCounters, MemoryTrackerSeesAllocations) {
  perf::Counters& c = perf::counters();
  const std::uint64_t before = c.bytes_live;
  {
    Tensor t = Tensor::zeros({1024});
    EXPECT_EQ(c.bytes_live, before + 1024 * sizeof(float));
    EXPECT_GE(c.bytes_peak, c.bytes_live);
  }
  EXPECT_EQ(c.bytes_live, before);
}

TEST(PerfCounters, PeakResetsToLive) {
  perf::Counters& c = perf::counters();
  { Tensor big = Tensor::zeros({1 << 16}); }
  perf::reset_peak();
  EXPECT_EQ(c.bytes_peak, c.bytes_live);
}

TEST(PerfCounters, KernelCounterAndPerOp) {
  perf::reset_kernels();
  perf::set_per_op(true);
  perf::count_kernel("foo");
  perf::count_kernel("bar");
  perf::count_kernel("bar");
  perf::count_kernel("bar");
  EXPECT_EQ(perf::counters().kernel_launches, 4u);
  EXPECT_EQ(perf::counters().per_op.at("foo"), 1u);
  EXPECT_EQ(perf::counters().per_op.at("bar"), 3u);
  perf::set_per_op(false);
  perf::reset_kernels();
}


TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, 1000, 8, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, 1, [&](index_t, index_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ThreadCountInvariantResults) {
  // Matmul partitions rows; any worker count must give identical bits.
  const int original = num_threads();
  Rng rng(99);
  Tensor a = Tensor::empty({64, 32});
  Tensor b = Tensor::empty({32, 48});
  rng.fill_uniform(a, -1.0f, 1.0f);
  rng.fill_uniform(b, -1.0f, 1.0f);
  auto matmul_vec = [&]() {
    ag::Var va(a.clone(), false), vb(b.clone(), false);
    return ag::ops::matmul(va, vb).value().to_vector();
  };
  set_num_threads(1);
  auto r1 = matmul_vec();
  set_num_threads(4);
  auto r4 = matmul_vec();
  set_num_threads(original);
  EXPECT_EQ(r1, r4);
}

TEST(ParallelFor, RunsRightAfterResize) {
  // Helpers spawned by set_num_threads must wake only for the next run.
  // Waking on the last finished one would count a helper out twice and
  // could leave the caller waiting forever.
  const int original = num_threads();
  std::vector<int> hits(256);
  for (int rep = 0; rep < 10000; ++rep) {
    set_num_threads(2 + rep % 3);
    std::fill(hits.begin(), hits.end(), 0);
    parallel_for(0, 256, 8, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (int h : hits) ASSERT_EQ(h, 1) << "rep " << rep;
  }
  set_num_threads(original);
}

TEST(ParallelFor, ChunkExceptionReachesCallerAndPoolRecovers) {
  const int original = num_threads();
  set_num_threads(4);
  // Throw from a range that does not start the interval, so a helper can
  // be the one that throws.
  EXPECT_THROW(parallel_for(0, 4096, 1,
                            [](index_t lo, index_t) {
                              if (lo > 0) throw std::runtime_error("chunk");
                            }),
               std::runtime_error);
  // Every range throws: still one exception, on the caller.
  EXPECT_THROW(parallel_for(0, 4096, 1,
                            [](index_t, index_t) {
                              throw std::logic_error("every chunk");
                            }),
               std::logic_error);
  std::vector<int> hits(4096, 0);
  parallel_for(0, 4096, 1, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  set_num_threads(original);
}

TEST(ParallelFor, SizeRuleKeepsSmallWorkInline) {
  const int original = num_threads();
  set_num_threads(4);
  perf::counters().reset();
  std::vector<int> hits(static_cast<std::size_t>(kParallelMinWork), 0);
  const auto count = [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  };
  parallel_rows(kParallelMinWork - 1, 1, count);
  EXPECT_EQ(perf::counters().snapshot().pool_dispatches, 0u);
  parallel_rows(kParallelMinWork, 1, count);
  EXPECT_EQ(perf::counters().snapshot().pool_dispatches, 1u);
  // Work per row counts: 2 rows of half the rule's work reach it.
  parallel_rows(2, kParallelMinWork / 2, [](index_t, index_t) {});
  EXPECT_EQ(perf::counters().snapshot().pool_dispatches, 2u);
  EXPECT_EQ(hits.back(), 1);
  EXPECT_EQ(hits.front(), 2);
  perf::counters().reset();
  EXPECT_EQ(perf::counters().snapshot().pool_dispatches, 0u);
  set_num_threads(1);
  parallel_rows(kParallelMinWork, 1, count);
  EXPECT_EQ(perf::counters().snapshot().pool_dispatches, 0u);
  set_num_threads(original);
}

TEST(ParallelFor, InlineRegionRunsOnCallerUntilItEnds) {
  const int original = num_threads();
  set_num_threads(4);
  perf::counters().reset();
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  bool on_caller = true;
  const auto body = [&](index_t lo, index_t hi) {
    ++calls;
    on_caller = on_caller && std::this_thread::get_id() == caller;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 4096);
  };
  {
    InlineRegion outer;
    {
      InlineRegion nested;
      parallel_for(0, 4096, 1, body);
    }
    parallel_for(0, 4096, 1, body);  // the outer region still holds
  }
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(on_caller);
  EXPECT_EQ(perf::counters().snapshot().pool_dispatches, 0u);
  // Past the region the pool takes the range again, in chunks.
  std::vector<int> hits(4096, 0);
  parallel_for(0, 4096, 1, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  EXPECT_EQ(perf::counters().snapshot().pool_dispatches, 1u);
  for (int h : hits) EXPECT_EQ(h, 1);
  perf::counters().reset();
  set_num_threads(original);
}

TEST(ParallelFor, SetNumThreadsRoundTrip) {
  const int original = num_threads();
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(original);
  EXPECT_EQ(num_threads(), original);
}

TEST(Rng, Determinism) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, RandintBounds) {
  Rng r(7);
  for (int i = 0; i < 200; ++i) {
    index_t v = r.randint(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, FillNormalMoments) {
  Rng r(11);
  Tensor t = Tensor::empty({20000});
  r.fill_normal(t, 1.0f, 2.0f);
  double mean = 0.0;
  for (float v : t.to_vector()) mean += v;
  mean /= t.numel();
  EXPECT_NEAR(mean, 1.0, 0.1);
}

}  // namespace
}  // namespace fastchg
