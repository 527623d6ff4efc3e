// Offline fusion on the replay tape (core/fuse.hpp) -- the differential
// proof the pass is correct:
//
//   * differential harness: seeded random op chains (elementwise DAGs with
//     broadcasts, gather prologues, scatter/reduction epilogues, opaque
//     matmul barriers) captured fused and unfused, replayed over fresh
//     random batches -- every tap byte-identical between the two programs
//     and against an eager re-evaluation (max diff exactly 0.0);
//   * integration differentials: trainer (weights + byte-identical
//     checkpoints), every DP replica, and the fused serve forward, fusion
//     on vs off;
//   * property fuzz of the legality checker: find_spans over randomly
//     generated (metadata-only) tapes never violates the span invariants
//     -- bounds, ordering, opaque exclusion, terminator placement,
//     geometry agreement, register-file cap -- and fuse_tape conserves
//     step counts against the spans it reports;
//   * property fuzz of the memory planner: random lifetime sets
//     (overlapping, nested, zero-length) always produce valid 64B-aligned
//     plans no smaller than the max-live lower bound; seed-logged;
//   * golden tapes: exact kernel/span counts for the trainer, DP and serve
//     programs at a fixed topology, so over- or under-fusion fails here
//     before it silently changes perf;
//   * replay_plan_bytes gauge audit across invalidate -> recapture ->
//     re-fuse cycles (no drift over 3 rounds);
//   * kill switch: FASTCHG_FUSE=off captures the raw tape (zero spans,
//     counted == raw) and still replays bit-exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "core/fuse.hpp"
#include "core/memplan.hpp"
#include "core/replay.hpp"
#include "data/dataset.hpp"
#include "parallel/data_parallel.hpp"
#include "perf/counters.hpp"
#include "serve/engine.hpp"
#include "train/trainer.hpp"

namespace fastchg {
namespace {

namespace fuse = replay::fuse;

using replay::BufferLife;
using replay::MemPlan;
using replay::Program;
using replay::ProgramCache;
using replay::Recorder;
using replay::RecorderScope;

// Golden tape numbers for the fixed topologies below (identical_rows
// datasets + tiny_config).  They change only when the model's op schedule
// or the fusion pass changes -- update them deliberately, with the perf
// numbers in hand.
constexpr std::uint64_t kGoldenTrainerRaw = 3585;
constexpr std::uint64_t kGoldenTrainerCounted = 1116;
constexpr std::size_t kGoldenTrainerSpans = 352;
constexpr std::uint64_t kGoldenServeRaw = 1215;
constexpr std::uint64_t kGoldenServeCounted = 413;
constexpr std::size_t kGoldenServeSpans = 147;
constexpr std::uint64_t kGoldenDpRaw = 2501;
constexpr std::uint64_t kGoldenDpCounted = 818;
constexpr std::size_t kGoldenDpSpans = 269;

class FuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_replay_ = replay::replay_enabled();
    prev_fuse_ = fuse::fuse_enabled();
  }
  void TearDown() override {
    replay::set_replay_enabled(prev_replay_);
    fuse::set_fuse_enabled(prev_fuse_);
  }

 private:
  bool prev_replay_ = true;
  bool prev_fuse_ = true;
};

Tensor random_tensor(std::mt19937_64& rng, const Shape& shape) {
  index_t n = 1;
  for (index_t d : shape) n *= d;
  std::vector<float> v(static_cast<std::size_t>(n));
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (float& f : v) f = dist(rng);
  return Tensor::from_vector(std::move(v), shape);
}

/// Bit-level equality: NaNs with identical payloads compare equal, so a
/// deterministic non-finite excursion in a random chain still matches.
void expect_bytes_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

// ---------------------------------------------------------------------------
// Differential harness: random op chains, fused vs unfused vs eager
// ---------------------------------------------------------------------------

/// Deterministic random op chain over three leaves: X [N,C] (working set),
/// T [R,C] (gather table), W [C,C] (matmul barrier).  The *structure*
/// (which ops, which indices) comes from `structure_seed`; the float
/// payloads come from the leaf tensors, so one structure can be replayed
/// over many batches.  Returns the tapped tensors (reduction outputs,
/// scatter results, and the final value).
struct ChainSpec {
  std::uint64_t structure_seed = 0;
  index_t n = 6;
  index_t c = 5;
  index_t r = 4;
  int num_ops = 18;
};

std::vector<Tensor> eval_chain(const ChainSpec& cs, const Tensor& x,
                               const Tensor& t, const Tensor& w) {
  std::mt19937_64 rng(cs.structure_seed);
  ag::Var vt = ag::ops::constant(t);
  ag::Var vw = ag::ops::constant(w);
  std::vector<ag::Var> pool;  // every entry is [N,C]
  pool.push_back(ag::ops::constant(x));
  std::vector<Tensor> taps;
  auto pick = [&]() -> const ag::Var& {
    return pool[static_cast<std::size_t>(rng() % pool.size())];
  };
  for (int k = 0; k < cs.num_ops; ++k) {
    switch (rng() % 12) {
      case 0: {  // gather prologue: fresh rows from the table
        std::vector<index_t> idx(static_cast<std::size_t>(cs.n));
        for (index_t& v : idx) v = static_cast<index_t>(rng() % cs.r);
        pool.push_back(ag::ops::index_select0(vt, std::move(idx)));
        break;
      }
      case 1: {  // scatter epilogue: accumulate the value into R rows
        std::vector<index_t> idx(static_cast<std::size_t>(cs.n));
        for (index_t& v : idx) v = static_cast<index_t>(rng() % cs.r);
        taps.push_back(
            ag::ops::index_add0(cs.r, std::move(idx), pick()).value());
        break;
      }
      case 2:  // reduction epilogues
        taps.push_back(ag::ops::sum_all(pick()).value());
        break;
      case 3:
        taps.push_back(
            ag::ops::sum_dim(pick(), static_cast<index_t>(rng() % 2),
                             /*keepdim=*/false)
                .value());
        break;
      case 4: {  // binary, same shape
        const ag::Var& a = pick();
        const ag::Var& b = pick();
        switch (rng() % 3) {
          case 0:
            pool.push_back(ag::ops::add(a, b));
            break;
          case 1:
            pool.push_back(ag::ops::sub(a, b));
            break;
          default:
            pool.push_back(ag::ops::mul(a, b));
            break;
        }
        break;
      }
      case 5: {  // broadcast binary: row / col / scalar operand from a
                 // reduction of another pool value
        const ag::Var& a = pick();
        const ag::Var& b = pick();
        switch (rng() % 3) {
          case 0:
            pool.push_back(
                ag::ops::mul(a, ag::ops::sum_dim(b, 0, /*keepdim=*/true)));
            break;
          case 1:
            pool.push_back(
                ag::ops::add(a, ag::ops::sum_dim(b, 1, /*keepdim=*/true)));
            break;
          default:
            pool.push_back(ag::ops::add(a, ag::ops::sum_all(b)));
            break;
        }
        break;
      }
      case 6:  // opaque barrier in the middle of fusible material
        pool.push_back(ag::ops::matmul(pick(), vw));
        break;
      default: {  // elementwise unary (bounded ones keep values tame)
        const ag::Var& a = pick();
        switch (rng() % 8) {
          case 0:
            pool.push_back(ag::ops::tanh_op(a));
            break;
          case 1:
            pool.push_back(ag::ops::sigmoid(a));
            break;
          case 2:
            pool.push_back(ag::ops::silu(a));
            break;
          case 3:
            pool.push_back(ag::ops::neg(a));
            break;
          case 4:
            pool.push_back(ag::ops::sin_op(a));
            break;
          case 5:
            pool.push_back(ag::ops::mul_scalar(a, 0.5f));
            break;
          case 6:
            pool.push_back(ag::ops::clamp(a, -2.0f, 2.0f));
            break;
          default:
            pool.push_back(ag::ops::square(a));
            break;
        }
        break;
      }
    }
  }
  taps.push_back(pool.back().value());
  return taps;
}

std::shared_ptr<Program> capture_chain(const ChainSpec& cs, const Tensor& x,
                                       const Tensor& t, const Tensor& w) {
  Recorder rec;
  rec.bind_input(x);
  rec.bind_input(t);
  rec.bind_input(w);
  std::vector<Tensor> taps;
  {
    RecorderScope scope(rec);
    taps = eval_chain(cs, x, t, w);
  }
  for (const Tensor& tap : taps) rec.tap(tap);
  return rec.finish();
}

TEST_F(FuseTest, DifferentialRandomChainsFusedVsUnfusedVsEager) {
  replay::set_replay_enabled(true);
  for (std::uint64_t structure = 0; structure < 20; ++structure) {
    ChainSpec cs;
    cs.structure_seed = 0xc0ffee00u + structure;
    SCOPED_TRACE("structure_seed=" + std::to_string(cs.structure_seed));
    std::mt19937_64 rng(cs.structure_seed * 31 + 1);
    const Tensor x0 = random_tensor(rng, {cs.n, cs.c});
    const Tensor t0 = random_tensor(rng, {cs.r, cs.c});
    const Tensor w0 = random_tensor(rng, {cs.c, cs.c});

    fuse::set_fuse_enabled(true);
    const auto fused = capture_chain(cs, x0, t0, w0);
    fuse::set_fuse_enabled(false);
    const auto raw = capture_chain(cs, x0, t0, w0);

    // Fingerprints hash the pre-fusion tape: the kill switch must not
    // change program identity.
    EXPECT_EQ(fused->fingerprint(), raw->fingerprint());
    EXPECT_LE(fused->num_steps(), raw->num_steps());
    EXPECT_EQ(raw->fused_spans(), 0u);
    EXPECT_EQ(raw->counted_kernels(), raw->raw_counted_kernels());
    EXPECT_TRUE(replay::plan_valid(fused->plan()));
    EXPECT_TRUE(replay::plan_valid(raw->plan()));

    for (int rep = 0; rep < 3; ++rep) {
      const Tensor x = random_tensor(rng, {cs.n, cs.c});
      const Tensor t = random_tensor(rng, {cs.r, cs.c});
      const Tensor w = random_tensor(rng, {cs.c, cs.c});
      ASSERT_TRUE(fused->bind({x, t, w}, {}));
      fused->run();
      ASSERT_TRUE(raw->bind({x, t, w}, {}));
      raw->run();
      const std::vector<Tensor> eager = eval_chain(cs, x, t, w);
      ASSERT_EQ(fused->tap_count(), eager.size());
      ASSERT_EQ(raw->tap_count(), eager.size());
      for (std::size_t i = 0; i < eager.size(); ++i) {
        expect_bytes_equal(fused->tap_value(i), raw->tap_value(i),
                           "fused vs unfused tap");
        expect_bytes_equal(fused->tap_value(i), eager[i],
                           "fused vs eager tap");
      }
    }
  }
}

TEST_F(FuseTest, FusionActuallyEngagesOnChainTapes) {
  // The differential above holds trivially if fusion never fires; pin that
  // the random chains actually produce fused spans and eliminated slots.
  replay::set_replay_enabled(true);
  fuse::set_fuse_enabled(true);
  std::size_t spans = 0, removed = 0, eliminated = 0;
  for (std::uint64_t structure = 0; structure < 20; ++structure) {
    ChainSpec cs;
    cs.structure_seed = 0xc0ffee00u + structure;
    std::mt19937_64 rng(cs.structure_seed * 31 + 1);
    const Tensor x0 = random_tensor(rng, {cs.n, cs.c});
    const Tensor t0 = random_tensor(rng, {cs.r, cs.c});
    const Tensor w0 = random_tensor(rng, {cs.c, cs.c});
    const auto fused = capture_chain(cs, x0, t0, w0);
    spans += fused->fused_spans();
    removed += fused->fused_kernels_removed();
    eliminated += fused->fused_slots_eliminated();
  }
  EXPECT_GT(spans, 20u);
  EXPECT_GT(removed, 40u);
  EXPECT_GT(eliminated, 20u);
}

TEST_F(FuseTest, TappedIntermediateInsideSpanStaysMaterialized) {
  // Tap the middle of an elementwise chain: the span may still fuse, but
  // the tapped slot must keep its slab slot and exact value.
  replay::set_replay_enabled(true);
  std::mt19937_64 rng(99u);
  const Tensor x0 = random_tensor(rng, {8, 3});

  auto capture = [&](const Tensor& x, bool fuse_on) {
    fuse::set_fuse_enabled(fuse_on);
    Recorder rec;
    rec.bind_input(x);
    Tensor mid, out;
    {
      RecorderScope scope(rec);
      ag::Var a = ag::ops::tanh_op(ag::ops::constant(x));
      mid = a.value();
      out = ag::ops::mul_scalar(ag::ops::square(a), 0.25f).value();
    }
    rec.tap(mid);
    rec.tap(out);
    return rec.finish();
  };

  const auto fused = capture(x0, true);
  const auto raw = capture(x0, false);
  EXPECT_GE(fused->fused_spans(), 1u);
  const Tensor x = random_tensor(rng, {8, 3});
  ASSERT_TRUE(fused->bind({x}, {}));
  fused->run();
  ASSERT_TRUE(raw->bind({x}, {}));
  raw->run();
  expect_bytes_equal(fused->tap_value(0), raw->tap_value(0), "tapped mid");
  expect_bytes_equal(fused->tap_value(1), raw->tap_value(1), "final");
}

// ---------------------------------------------------------------------------
// Legality-checker property fuzz on synthetic tapes
// ---------------------------------------------------------------------------

/// Random metadata-only tape: closures are empty (never run), descriptors
/// are deliberately messy -- mismatched element counts, conflicting
/// geometry, opaque barriers, read-after-scatter hazards -- so find_spans
/// has to *reject* its way to legality.
struct SyntheticTape {
  std::vector<fuse::TapeStep> steps;
  std::vector<fuse::TapeSlot> slots;
};

SyntheticTape random_tape(std::mt19937_64& rng) {
  SyntheticTape tape;
  auto new_slot = [&](index_t numel, bool planned) {
    fuse::TapeSlot s;
    s.numel = numel;
    s.planned = planned;
    s.reserved = planned && rng() % 8 == 0;  // occasional tap pin
    tape.slots.push_back(s);
    return static_cast<int>(tape.slots.size() - 1);
  };
  // External leaves the tape can read from.
  const index_t n_a = 12, n_b = 20;
  std::vector<int> leaves;
  for (int i = 0; i < 3; ++i) leaves.push_back(new_slot(n_a, false));
  for (int i = 0; i < 2; ++i) leaves.push_back(new_slot(n_b, false));
  std::vector<int> values = leaves;  // slots steps may read
  auto pick_val = [&]() {
    return values[static_cast<std::size_t>(rng() % values.size())];
  };
  const int num_steps = 10 + static_cast<int>(rng() % 40);
  for (int k = 0; k < num_steps; ++k) {
    fuse::TapeStep st;
    st.counted = rng() % 4 != 0;
    // Mostly-consistent element count with deliberate 1-in-6 corruption.
    const index_t n = rng() % 6 == 0 ? n_b : n_a;
    switch (rng() % 10) {
      case 0: {  // opaque barrier
        st.op = "opaque";
        st.ins = {pick_val()};
        st.outs = {new_slot(n, true)};
        values.push_back(st.outs[0]);
        break;
      }
      case 1: {  // gather
        st.op = "gather";
        auto idx = std::make_shared<std::vector<index_t>>();
        const index_t w = rng() % 2 == 0 ? 4 : 1;
        for (index_t i = 0; i < n / w; ++i) {
          idx->push_back(static_cast<index_t>(rng() % 3));
        }
        st.desc = fuse::gather_desc(idx, 3, w);
        st.ins = {pick_val()};
        st.outs = {new_slot(n, true)};
        values.push_back(st.outs[0]);
        break;
      }
      case 2: {  // scatter
        st.op = "scatter";
        auto idx = std::make_shared<std::vector<index_t>>();
        const index_t w = rng() % 2 == 0 ? 4 : 1;
        for (index_t i = 0; i < n / w; ++i) {
          idx->push_back(static_cast<index_t>(rng() % 5));
        }
        st.desc = fuse::scatter_desc(idx, 5, w);
        st.ins = {pick_val()};
        st.outs = {new_slot(5 * w, true)};
        // Scatter output occasionally read later: must never fuse into a
        // span that also reads it.
        if (rng() % 2 == 0) values.push_back(st.outs[0]);
        break;
      }
      case 3: {  // reduction
        st.op = "reduce";
        const int which = static_cast<int>(rng() % 3);
        const fuse::EOp op = which == 0   ? fuse::EOp::kSumAll
                             : which == 1 ? fuse::EOp::kSumDim0
                                          : fuse::EOp::kSumDim1;
        const index_t cols = which == 0 ? 0 : (rng() % 2 == 0 ? 4 : 6);
        st.desc = fuse::reduce_desc(op, n, cols);
        st.ins = {pick_val()};
        st.outs = {new_slot(which == 0 ? 1 : 4, true)};
        values.push_back(st.outs[0]);
        break;
      }
      case 4: {  // binary elementwise with random addressing
        st.op = "bin";
        const auto addr = [&]() {
          switch (rng() % 4) {
            case 0:
              return fuse::Addr::kScalar;
            case 1:
              return fuse::Addr::kRow;
            case 2:
              return fuse::Addr::kCol;
            default:
              return fuse::Addr::kElem;
          }
        };
        const fuse::Addr aa = addr(), ab = addr();
        const index_t cols =
            (aa != fuse::Addr::kElem && aa != fuse::Addr::kScalar) ||
                    (ab != fuse::Addr::kElem && ab != fuse::Addr::kScalar)
                ? (rng() % 2 == 0 ? 4 : 6)
                : 0;
        st.desc = fuse::ew_binary(fuse::EOp::kAdd, aa, ab, n, cols);
        st.ins = {pick_val(), pick_val()};
        st.outs = {new_slot(n, true)};
        values.push_back(st.outs[0]);
        break;
      }
      case 5: {  // accumulate into an external leaf (grad_accum shape)
        st.op = "accum";
        st.desc = fuse::ew_accum(n_a);
        const int dst = leaves[static_cast<std::size_t>(rng() % 3)];
        st.ins = {dst, pick_val()};
        st.outs = {dst};
        break;
      }
      default: {  // unary elementwise
        st.op = "ew";
        st.desc = fuse::ew_unary(fuse::EOp::kTanh, n);
        st.ins = {pick_val()};
        st.outs = {new_slot(n, true)};
        values.push_back(st.outs[0]);
        break;
      }
    }
    tape.steps.push_back(std::move(st));
  }
  return tape;
}

TEST_F(FuseTest, FuzzFindSpansInvariantsOnRandomTapes) {
  for (int iter = 0; iter < 300; ++iter) {
    const std::uint64_t seed = 0xfade0000u + static_cast<std::uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    SyntheticTape tape = random_tape(rng);
    const std::vector<fuse::Span> spans =
        fuse::find_spans(tape.steps, tape.slots);

    int prev_end = 0;
    for (const fuse::Span& sp : spans) {
      // Bounds, ordering, minimum size, register-file cap.
      ASSERT_GE(sp.begin, prev_end);
      ASSERT_LT(sp.begin, sp.end);
      ASSERT_LE(sp.end, static_cast<int>(tape.steps.size()));
      ASSERT_GE(sp.end - sp.begin, 2);
      ASSERT_LE(sp.end - sp.begin, fuse::kMaxSpanOps);
      prev_end = sp.end;

      int counted = 0;
      index_t span_cols = 0;
      for (int i = sp.begin; i < sp.end; ++i) {
        const fuse::TapeStep& st = tape.steps[static_cast<std::size_t>(i)];
        // No opaque step ever fuses.
        ASSERT_NE(st.desc.kind, fuse::StepDesc::Kind::kOpaque) << i;
        // Scatter/reduce only terminate a span.
        if (st.desc.kind == fuse::StepDesc::Kind::kScatter ||
            st.desc.kind == fuse::StepDesc::Kind::kReduce) {
          ASSERT_EQ(i, sp.end - 1) << "terminator mid-span";
        }
        // Geometry agreement: every imposed cols constraint matches.
        index_t c = 0;
        if (st.desc.kind == fuse::StepDesc::Kind::kGather ||
            st.desc.kind == fuse::StepDesc::Kind::kScatter) {
          c = st.desc.index.w;
        } else if (st.desc.ew.cols > 1) {
          c = st.desc.ew.cols;
        }
        if (c > 0) {
          if (span_cols == 0) span_cols = c;
          ASSERT_EQ(span_cols, c) << "conflicting cols in span at " << i;
        }
        counted += st.counted ? 1 : 0;
      }
      ASSERT_EQ(sp.counted, counted);
    }

    // fuse_tape must agree with its own span finder: step conservation
    // and reported stats.
    std::size_t expect_len = tape.steps.size();
    for (const fuse::Span& sp : spans) {
      expect_len -= static_cast<std::size_t>(sp.end - sp.begin - 1);
    }
    std::vector<fuse::TapeStep> rewritten = tape.steps;
    const fuse::FuseStats stats = fuse::fuse_tape(rewritten, tape.slots);
    ASSERT_EQ(rewritten.size(), expect_len);
    ASSERT_EQ(stats.spans, spans.size());
  }
}

// ---------------------------------------------------------------------------
// Memory planner property fuzz (satellite)
// ---------------------------------------------------------------------------

TEST_F(FuseTest, FuzzMemoryPlannerInvariants) {
  for (int iter = 0; iter < 300; ++iter) {
    const std::uint64_t seed = 0xbeef0000u + static_cast<std::uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const int n = static_cast<int>(rng() % 60);
    std::vector<BufferLife> lives;
    lives.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      BufferLife b;
      b.bytes = 4 * (1 + rng() % 400);
      switch (rng() % 4) {
        case 0:  // zero-length lifetime: def == last
          b.def = static_cast<int>(rng() % 50);
          b.last = b.def;
          break;
        case 1:  // nested inside a previous interval when one exists
          if (!lives.empty()) {
            const BufferLife& outer =
                lives[static_cast<std::size_t>(rng() % lives.size())];
            b.def = outer.def + static_cast<int>(rng() % 3);
            b.last = std::max(b.def, outer.last - static_cast<int>(rng() % 3));
            break;
          }
          [[fallthrough]];
        default:  // arbitrary overlap
          b.def = static_cast<int>(rng() % 50);
          b.last = b.def + static_cast<int>(rng() % 25);
          break;
      }
      lives.push_back(b);
    }
    const MemPlan plan = replay::plan_memory(lives);
    // Never admits an overlap (brute force), offsets stay aligned, and the
    // slab never beats the max-live lower bound.
    ASSERT_TRUE(replay::plan_valid(plan));
    for (const BufferLife& b : plan.buffers) {
      ASSERT_EQ(b.offset % MemPlan::kAlign, 0u);
    }
    ASSERT_GE(plan.slab_bytes, plan.lower_bound_bytes);
  }
}

// ---------------------------------------------------------------------------
// Integration differentials: trainer / DP / serve, fusion on vs off
// ---------------------------------------------------------------------------

model::ModelConfig tiny_config() {
  model::ModelConfig cfg;
  cfg.feat_dim = 12;
  cfg.num_radial = 7;
  cfg.num_angular = 7;
  cfg.num_layers = 2;
  return cfg;
}

data::Dataset identical_rows(index_t n, std::uint64_t seed) {
  data::GeneratorConfig g;
  g.min_atoms = 4;
  g.max_atoms = 6;
  data::Dataset one = data::Dataset::generate(1, seed, g);
  std::vector<data::Crystal> crystals(static_cast<std::size_t>(n),
                                      one[0].crystal);
  return data::Dataset::from_crystals(std::move(crystals));
}

std::vector<index_t> all_rows(const data::Dataset& ds) {
  std::vector<index_t> idx(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) {
    idx[static_cast<std::size_t>(i)] = i;
  }
  return idx;
}

std::vector<float> flatten_parameters(const model::CHGNet& net) {
  std::vector<float> flat;
  for (const ag::Var& p : net.parameters()) {
    const std::vector<float> v = p.value().to_vector();
    flat.insert(flat.end(), v.begin(), v.end());
  }
  return flat;
}

float max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

struct TrainRun {
  std::vector<float> params;
  std::string checkpoint;
  std::shared_ptr<Program> program;
};

TrainRun train_with_fuse(bool fuse_on, const std::string& ckpt_path) {
  replay::set_replay_enabled(true);
  fuse::set_fuse_enabled(fuse_on);
  data::Dataset ds = identical_rows(12, 51);
  model::CHGNet net(tiny_config(), 9);
  train::TrainConfig tc;
  tc.batch_size = 4;
  tc.epochs = 4;
  train::Trainer trainer(net, tc);
  TrainRun run;
  trainer.fit(ds, all_rows(ds));
  run.params = flatten_parameters(net);
  const auto programs = trainer.replay_cache().programs();
  if (!programs.empty()) run.program = programs.front();
  trainer.save_checkpoint(ckpt_path);
  run.checkpoint = ckpt_path;
  return run;
}

TEST_F(FuseTest, TrainerFusedBitExactAndRemovesAQuarterOfKernels) {
  const TrainRun fused =
      train_with_fuse(true, ::testing::TempDir() + "fuse_on.ckpt");
  const TrainRun raw =
      train_with_fuse(false, ::testing::TempDir() + "fuse_off.ckpt");

  EXPECT_EQ(max_abs_diff(fused.params, raw.params), 0.0f);
  EXPECT_EQ(read_file(fused.checkpoint), read_file(raw.checkpoint))
      << "fusion must not perturb weights, Adam state, or the RNG stream";

  ASSERT_TRUE(fused.program != nullptr);
  ASSERT_TRUE(raw.program != nullptr);
  EXPECT_EQ(fused.program->fingerprint(), raw.program->fingerprint());
  EXPECT_EQ(raw.program->fused_spans(), 0u);

  // Acceptance gate: >= 25% of the trainer tape's counted kernels fuse
  // away, and the fused plan never needs more slab than the raw one.
  const double kept = static_cast<double>(fused.program->counted_kernels());
  const double was =
      static_cast<double>(fused.program->raw_counted_kernels());
  EXPECT_EQ(fused.program->raw_counted_kernels(),
            raw.program->raw_counted_kernels());
  EXPECT_LE(kept, was * 0.75)
      << "trainer tape: " << kept << " of " << was << " kernels kept";
  EXPECT_LE(fused.program->plan_bytes(), raw.program->plan_bytes());
  EXPECT_GT(fused.program->fused_slots_eliminated(), 0u);
}

TEST_F(FuseTest, DataParallelFusedBitExactOnEveryReplica) {
  const auto dp_train = [](bool fuse_on, float* divergence) {
    replay::set_replay_enabled(true);
    fuse::set_fuse_enabled(fuse_on);
    data::Dataset ds = identical_rows(16, 71);
    parallel::DataParallelConfig cfg;
    cfg.num_devices = 2;
    cfg.global_batch = 4;
    parallel::DataParallelTrainer dp(tiny_config(), cfg, 17);
    for (index_t e = 0; e < 3; ++e) dp.train_epoch(ds, all_rows(ds), e);
    if (divergence != nullptr) *divergence = dp.replica_divergence();
    return flatten_parameters(dp.master());
  };
  float div_on = -1.0f, div_off = -1.0f;
  const std::vector<float> on = dp_train(true, &div_on);
  const std::vector<float> off = dp_train(false, &div_off);
  EXPECT_EQ(max_abs_diff(on, off), 0.0f);
  EXPECT_EQ(div_on, 0.0f);
  EXPECT_EQ(div_off, 0.0f);
}

TEST_F(FuseTest, ServeFusedForwardBitExactVsUnfused) {
  const auto serve_once = [](bool fuse_on) {
    replay::set_replay_enabled(true);
    fuse::set_fuse_enabled(fuse_on);
    data::Dataset ds = identical_rows(4, 81);
    model::CHGNet net(tiny_config(), 12);
    serve::EngineConfig cfg;
    cfg.max_batch = 4;
    cfg.cache_capacity = 0;
    serve::InferenceEngine engine(net, cfg);
    std::vector<serve::Prediction> out;
    for (int tick = 0; tick < 8; ++tick) {
      for (index_t i = 0; i < ds.size(); ++i) {
        EXPECT_TRUE(engine.submit(ds[i].crystal).ok());
      }
      for (auto& r : engine.drain()) {
        EXPECT_TRUE(r.ok());
        if (r.ok()) out.push_back(r.value());
      }
    }
    return out;
  };
  const auto on = serve_once(true);
  const auto off = serve_once(false);
  ASSERT_EQ(on.size(), off.size());
  ASSERT_FALSE(on.empty());
  for (std::size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(on[i].energy, off[i].energy) << i;
    ASSERT_EQ(on[i].forces.size(), off[i].forces.size());
    for (std::size_t a = 0; a < on[i].forces.size(); ++a) {
      for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(on[i].forces[a][d], off[i].forces[a][d]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden tapes (satellite): exact kernel/span counts at a fixed topology
// ---------------------------------------------------------------------------

TEST_F(FuseTest, GoldenTrainerTapeCounts) {
  const TrainRun fused =
      train_with_fuse(true, ::testing::TempDir() + "fuse_golden.ckpt");
  ASSERT_TRUE(fused.program != nullptr);
  const Program& p = *fused.program;
  EXPECT_EQ(p.raw_counted_kernels(), kGoldenTrainerRaw);
  EXPECT_EQ(p.counted_kernels(), kGoldenTrainerCounted);
  EXPECT_EQ(p.fused_spans(), kGoldenTrainerSpans);
  EXPECT_EQ(p.fused_kernels_removed(),
            kGoldenTrainerRaw - kGoldenTrainerCounted);
}

TEST_F(FuseTest, GoldenServeTapeCounts) {
  replay::set_replay_enabled(true);
  fuse::set_fuse_enabled(true);
  data::Dataset ds = identical_rows(4, 81);
  model::CHGNet net(tiny_config(), 12);
  serve::EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.cache_capacity = 0;
  serve::InferenceEngine engine(net, cfg);
  for (int tick = 0; tick < 4; ++tick) {
    for (index_t i = 0; i < ds.size(); ++i) {
      ASSERT_TRUE(engine.submit(ds[i].crystal).ok());
    }
    (void)engine.drain();
  }
  const auto programs = engine.replay_cache().programs();
  ASSERT_EQ(programs.size(), 1u);
  EXPECT_EQ(programs[0]->raw_counted_kernels(), kGoldenServeRaw);
  EXPECT_EQ(programs[0]->counted_kernels(), kGoldenServeCounted);
  EXPECT_EQ(programs[0]->fused_spans(), kGoldenServeSpans);
}

TEST_F(FuseTest, GoldenDataParallelTapeCounts) {
  replay::set_replay_enabled(true);
  fuse::set_fuse_enabled(true);
  data::Dataset ds = identical_rows(16, 71);
  parallel::DataParallelConfig cfg;
  cfg.num_devices = 2;
  cfg.global_batch = 4;
  parallel::DataParallelTrainer dp(tiny_config(), cfg, 17);
  for (index_t e = 0; e < 3; ++e) dp.train_epoch(ds, all_rows(ds), e);
  const auto programs = dp.replay_cache(0).programs();
  ASSERT_EQ(programs.size(), 1u);
  EXPECT_EQ(programs[0]->raw_counted_kernels(), kGoldenDpRaw);
  EXPECT_EQ(programs[0]->counted_kernels(), kGoldenDpCounted);
  EXPECT_EQ(programs[0]->fused_spans(), kGoldenDpSpans);
}

// ---------------------------------------------------------------------------
// replay_plan_bytes gauge audit (satellite)
// ---------------------------------------------------------------------------

Tensor random_square(std::mt19937_64& rng, index_t n) {
  return random_tensor(rng, {n, n});
}

std::shared_ptr<Program> capture_tiny(const Tensor& x, const Tensor& y) {
  Recorder rec;
  rec.bind_input(x);
  rec.bind_input(y);
  Tensor out;
  {
    RecorderScope scope(rec);
    ag::Var vx = ag::ops::constant(x);
    ag::Var vy = ag::ops::constant(y);
    out = ag::ops::mul(ag::ops::add(ag::ops::matmul(vx, vy), vx), vy).value();
  }
  rec.tap(out);
  return rec.finish();
}

TEST_F(FuseTest, PlanBytesGaugeDoesNotDriftAcrossInvalidateRecapture) {
  replay::set_replay_enabled(true);
  fuse::set_fuse_enabled(true);
  const std::uint64_t base =
      perf::counters().snapshot().replay_plan_bytes;
  std::mt19937_64 rng(0x9a6eu);
  const std::uint64_t key = 0x60'1de'11u;
  {
    ProgramCache cache(4);
    (void)cache.acquire(key);
    ASSERT_EQ(cache.acquire(key).action, ProgramCache::Action::kCapture);
    cache.store(key, capture_tiny(random_square(rng, 4),
                                  random_square(rng, 4)));
    std::uint64_t with_program = 0;
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE("round=" + std::to_string(round));
      std::uint64_t pb = 0;
      {
        // Scope the snapshot: a lingering shared_ptr would keep the slab
        // alive through the invalidate below.
        const auto programs = cache.programs();
        ASSERT_EQ(programs.size(), 1u);
        pb = programs[0]->plan_bytes();
      }
      const std::uint64_t now =
          perf::counters().snapshot().replay_plan_bytes;
      ASSERT_EQ(now, base + pb);
      if (round == 0) {
        with_program = now;
      } else {
        ASSERT_EQ(now, with_program) << "gauge drifted across recapture";
      }
      // Invalidate: the program (and its slab) must leave the gauge.
      cache.invalidate(key);
      ASSERT_EQ(perf::counters().snapshot().replay_plan_bytes, base);
      // Self-heal: the invalidated sighting counted as the eager pass, so
      // the very next sighting re-captures (and re-fuses).
      ASSERT_EQ(cache.acquire(key).action, ProgramCache::Action::kCapture);
      cache.store(key, capture_tiny(random_square(rng, 4),
                                    random_square(rng, 4)));
    }
  }
  // Cache destroyed: everything returns to baseline.
  EXPECT_EQ(perf::counters().snapshot().replay_plan_bytes, base);
}

// The tiny matmul -> add -> mul tape is the smallest fused-span shape:
// [add, mul] fuses into one kernel, the add intermediate vanishes.
TEST_F(FuseTest, TinyTapeFusesAddMulAndEliminatesTheIntermediate) {
  replay::set_replay_enabled(true);
  std::mt19937_64 rng(0x7177u);
  const Tensor x = random_square(rng, 4), y = random_square(rng, 4);
  fuse::set_fuse_enabled(true);
  const auto fused = capture_tiny(x, y);
  fuse::set_fuse_enabled(false);
  const auto raw = capture_tiny(x, y);

  EXPECT_EQ(raw->num_steps(), 3u);
  EXPECT_EQ(fused->num_steps(), 2u);  // matmul + fused(add, mul)
  EXPECT_EQ(fused->fused_spans(), 1u);
  EXPECT_EQ(fused->fused_kernels_removed(), 1u);
  EXPECT_EQ(fused->fused_slots_eliminated(), 1u);
  EXPECT_EQ(fused->raw_counted_kernels(), 3u);
  EXPECT_EQ(fused->counted_kernels(), 2u);
  // Max-live here is two 4x4 buffers either way (matmul out + final out
  // overlap at the fused step), so the slab can only stay equal or shrink.
  EXPECT_LE(fused->plan_bytes(), raw->plan_bytes());

  const Tensor x2 = random_square(rng, 4), y2 = random_square(rng, 4);
  ASSERT_TRUE(fused->bind({x2, y2}, {}));
  fused->run();
  ASSERT_TRUE(raw->bind({x2, y2}, {}));
  raw->run();
  expect_bytes_equal(fused->tap_value(0), raw->tap_value(0), "tiny tape");
}

TEST_F(FuseTest, PureElementwiseChainShrinksThePlan) {
  // tanh -> square -> mul_scalar with only the end tapped: both
  // intermediates fuse away, so the fused slab holds one buffer where the
  // raw plan's max-live needs two.
  replay::set_replay_enabled(true);
  std::mt19937_64 rng(0x5eafu);
  const auto capture = [&](const Tensor& x, bool fuse_on) {
    fuse::set_fuse_enabled(fuse_on);
    Recorder rec;
    rec.bind_input(x);
    Tensor out;
    {
      RecorderScope scope(rec);
      out = ag::ops::mul_scalar(
                ag::ops::square(ag::ops::tanh_op(ag::ops::constant(x))), 0.5f)
                .value();
    }
    rec.tap(out);
    return rec.finish();
  };
  const Tensor x0 = random_tensor(rng, {8, 3});
  const auto fused = capture(x0, true);
  const auto raw = capture(x0, false);
  EXPECT_EQ(fused->num_steps(), 1u);
  EXPECT_EQ(fused->fused_slots_eliminated(), 2u);
  EXPECT_LT(fused->plan_bytes(), raw->plan_bytes())
      << "eliminated intermediates must shrink the slab";
  const Tensor x = random_tensor(rng, {8, 3});
  ASSERT_TRUE(fused->bind({x}, {}));
  fused->run();
  ASSERT_TRUE(raw->bind({x}, {}));
  raw->run();
  expect_bytes_equal(fused->tap_value(0), raw->tap_value(0), "ew chain");
}

}  // namespace
}  // namespace fastchg
