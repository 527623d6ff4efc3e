// Recorded-step replay: capture the op sequence once, then execute a flat
// pre-planned program with no autograd-graph rebuild, no shared_ptr
// control-block churn, and no per-op dispatch.
//
// The paper's Fig. 8 shows the trained step settling into a constant
// kernel schedule; pooling (PR 5) already exploits that regularity at
// the allocator.  This layer exploits it at the op stream itself, the way a
// CUDA graph (or tt-metal's program cache) does:
//
//   capture   The integration site runs one ordinary eager step inside a
//             RecorderScope.  Every kernel in ops.cpp (and the fused
//             kernels in basis/nn) additionally pushes a re-runnable
//             closure addressing its buffers by *slot id*, and the
//             recorder tracks each intermediate's lifetime interval.
//   plan      finish() feeds the lifetimes to core/memplan.hpp, which
//             assigns every intermediate an exact offset inside one
//             contiguous slab (non-overlapping lifetimes share bytes).
//   replay    Program::run() binds the new batch's input pointers into the
//             slot table and executes the closure list front to back.  No
//             Nodes, no backward traversal, no Tensor handles, no
//             dispatch: just the same arithmetic loops over planned
//             addresses, bit-identical to eager by construction (the
//             closures reuse the very loop bodies the eager kernels run).
//
// Slot classes:
//   bound     batch tensors registered via bind_input() before capture and
//             re-pointed at the new batch every replay (positions, images,
//             lattices, labels).
//   baked     everything else the step reads but no recorded op writes:
//             parameters, gradient accumulators, topology-derived
//             constants.  The recorder pins the capture-time tensor, so
//             the storage stays alive and *current values* are always
//             visible through the stable pointer (Adam updates in place).
//             expect_stable() registers pointers to re-validate at bind
//             time, so a storage replacement (checkpoint restore,
//             set_atom_ref) falls back to eager instead of reading stale
//             memory.
//   planned   op outputs, placed in the slab by the memory plan.
//
// Cache keying: a program is only valid for batches with identical
// topology and composition, because index vectors (gather/scatter),
// species, atom counts and volumes are baked into the closures.  The
// KeyBuilder below hashes exactly that material (data::replay_key);
// anything float-valued that flows through bound slots (positions, images,
// labels) is deliberately *not* key material.  A key miss runs eager; the
// second sighting of a key captures (so gradient accumulators are warm and
// the tape records `grad += g`, which composes with gradient
// accumulation); later sightings replay.  Any bind/validation mismatch
// falls back to eager and invalidates the program for re-capture.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/memplan.hpp"
#include "core/tensor.hpp"
#include "ops/dispatch.hpp"

namespace fastchg::replay {

/// Global gate: FASTCHG_REPLAY=off|0 disables capture and replay at every
/// integration site (they run pure eager and touch no replay counters).
/// Defaults to on; set_replay_enabled overrides the environment (tests).
bool replay_enabled();
void set_replay_enabled(bool on);

/// FNV-1a accumulator for program cache keys.  Sites hash topology and
/// composition (see data::replay_key); bound float payloads stay out.
struct KeyBuilder {
  std::uint64_t h = 1469598103934665603ull;

  void mix_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void mix(std::uint64_t v) { mix_bytes(&v, sizeof(v)); }
  void mix_indices(const std::vector<index_t>& v) {
    mix(static_cast<std::uint64_t>(v.size()));
    if (!v.empty()) mix_bytes(v.data(), v.size() * sizeof(index_t));
  }
  /// Defined-ness flag plus dims: rebindable tensors contribute their
  /// shape (a shape change must miss) but never their float contents.
  void mix_shape(const Tensor& t) {
    if (!t.defined()) {
      mix(0xdefu);
      return;
    }
    mix(static_cast<std::uint64_t>(t.dim()) + 1);
    for (index_t d = 0; d < t.dim(); ++d) {
      mix(static_cast<std::uint64_t>(t.size(d)));
    }
  }
};

/// A captured, planned, replayable step program.
class Program {
 public:
  using StepFn = std::function<void(float* const*)>;

  ~Program();
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Re-point bound slots at this batch's tensors and re-validate the
  /// stable pointers registered at capture.  `inputs` and `stable` must be
  /// built by the same helpers the capture used (same order).  Returns
  /// false on any mismatch (count, numel, or a replaced stable storage);
  /// the caller then runs eager and invalidates the cache entry.
  bool bind(const std::vector<Tensor>& inputs,
            const std::vector<Tensor>& stable);

  /// Execute the closure list.  Requires a successful bind() on this
  /// thread-exclusive program (ProgramCache leases enforce exclusivity).
  void run();

  /// Capture-order tap values (copies of the tapped slots after run()).
  std::size_t tap_count() const { return taps_.size(); }
  Tensor tap_value(std::size_t i) const;

  /// Structure fingerprint: hash over (op, counted, slots) of every step,
  /// seeded with the SIMD tier active at capture.  Two captures of the
  /// same seeded step under the same tier produce the same fingerprint.
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// SIMD dispatch tier the tape was captured under.  bind() refuses a
  /// program whose tier differs from ops::active_tier(), so a mid-run
  /// FASTCHG_SIMD override can never mix tiers inside one tape: the caller
  /// falls back to eager and recaptures under the new tier.
  ops::Tier tier() const { return tier_; }
  std::size_t num_steps() const { return steps_.size(); }
  std::size_t plan_bytes() const { return plan_.slab_bytes; }
  const MemPlan& plan() const { return plan_; }

  /// Counted kernels on the tape: what one run() adds to the launch
  /// counters, exactly what the captured eager step launched.
  std::uint64_t counted_kernels() const { return counted_; }

 private:
  friend class Recorder;
  friend class ProgramCache;
  Program() = default;

  struct Step {
    const char* op;
    StepFn fn;
  };

  std::vector<Step> steps_;
  std::vector<float*> slots_;
  std::vector<Tensor> baked_;              ///< pinned storages (slot order)
  std::vector<int> bound_slots_;           ///< slot id per bind_input (-1 if unused)
  std::vector<index_t> bound_numel_;
  std::vector<const float*> stable_ptrs_;  ///< expect_stable pointers
  std::vector<int> tap_slots_;
  std::vector<Shape> tap_shapes_;
  std::vector<Tensor> taps_;               ///< filled by run()
  std::vector<std::pair<const char*, std::uint64_t>> kernel_counts_;
  std::vector<std::pair<int, std::size_t>> planned_;  ///< (slot, offset)
  MemPlan plan_;
  Tensor slab_;
  std::uint64_t fingerprint_ = 0;
  ops::Tier tier_ = ops::Tier::kScalar;
  std::uint64_t counted_ = 0;
  std::mutex run_mu_;  ///< slab exclusivity (leased via ProgramCache)
};

/// Records one eager step.  The site constructs a Recorder, registers the
/// bound inputs and stable pointers, runs the step inside a RecorderScope,
/// registers taps, and calls finish().  Kernels observe the active
/// recorder through Recorder::active() (thread-local; zero-cost when off).
class Recorder {
 public:
  using StepFn = Program::StepFn;

  /// Captures ops::active_tier() and mixes it into the fingerprint: tapes
  /// recorded under different SIMD tiers never share a fingerprint (or a
  /// cache entry that binds).
  Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// The recorder installed on this thread (nullptr almost always).
  static Recorder* active();

  // ---- site API ---------------------------------------------------------
  /// Register a rebindable input (call before the step, in the site's
  /// fixed order).  Undefined tensors are recorded as unused placeholders
  /// so capture and replay bind lists always align positionally.
  void bind_input(const Tensor& t);
  /// Register a pointer to re-validate at every bind (parameter values,
  /// gradient accumulators, the AtomRef table).
  void expect_stable(const Tensor& t);
  /// Register an output to copy out after every replay (call after the
  /// step, before finish()).
  void tap(const Tensor& t);
  /// Plan lifetimes, materialize the slab, and seal the program.
  std::shared_ptr<Program> finish();

  // ---- kernel API (ops.cpp, fused kernels, loss) ------------------------
  /// Slot of a tensor the next step reads (pins it; creates a baked slot
  /// for storage the recorder has not seen).
  int note_input(const Tensor& t);
  /// Slot for a freshly produced tensor (planned intermediate).
  int note_output(const Tensor& t);
  /// Append a step.  `ins`/`out` are the slots the closure reads/writes
  /// (lifetime + fingerprint metadata; `out` may appear in `ins` for
  /// read-modify-write steps).  `counted` steps contribute to the
  /// kernel-launch counters on replay exactly as their eager kernel did.
  void push(const char* op, bool counted, const std::vector<int>& ins,
            int out, StepFn fn);
  void push(const char* op, bool counted, std::initializer_list<int> ins,
            int out, StepFn fn) {
    push(op, counted, std::vector<int>(ins), out, std::move(fn));
  }
  /// Append a step that writes several slots (a kernel with more than one
  /// output, such as a fused backward).
  void push(const char* op, bool counted, const std::vector<int>& ins,
            const std::vector<int>& outs, StepFn fn);
  /// Leaf-gradient accumulation hook (ag::backward): dst += src.
  void note_accumulate(const Tensor& dst, const Tensor& src);

 private:
  friend class RecorderScope;

  struct SlotInfo {
    index_t numel = 0;
    bool planned = false;  ///< produced by a recorded step
  };

  /// One recorded step before planning: the closure plus every slot it
  /// reads and writes (a slot may be in both for read-modify-write steps).
  struct TapeEntry {
    const char* op;
    bool counted;
    std::vector<int> ins;
    std::vector<int> outs;
    StepFn fn;
  };

  int slot_for(const Tensor& t, bool as_output);
  void push_step(const char* op, bool counted, const std::vector<int>& ins,
                 std::vector<int> outs, StepFn fn);

  std::unordered_map<const float*, int> by_ptr_;
  std::vector<SlotInfo> slots_;
  std::vector<Tensor> pinned_;  ///< one per slot, keeps storage alive
  /// Pre-plan tape; finish() derives slot lifetimes from it.
  std::vector<TapeEntry> tape_;
  std::vector<int> bound_slots_;
  std::vector<index_t> bound_numel_;
  std::vector<const float*> stable_ptrs_;
  std::vector<int> tap_slots_;
  std::vector<Shape> tap_shapes_;
  std::uint64_t fingerprint_ = 1469598103934665603ull;
  ops::Tier tier_ = ops::Tier::kScalar;
  bool finished_ = false;
};

/// Installs a recorder as the thread's active recorder (RAII).
class RecorderScope {
 public:
  explicit RecorderScope(Recorder& r);
  ~RecorderScope();
  RecorderScope(const RecorderScope&) = delete;
  RecorderScope& operator=(const RecorderScope&) = delete;

 private:
  Recorder* prev_;
};

/// Per-site program cache with LRU eviction and warm-up sightings.
///
/// Both kinds of entry are bounded: at most `capacity` programs (LRU), and
/// at most kSightingCapacity keys seen but not (yet) captured, also LRU.  A
/// key whose second sighting comes after kSightingCapacity newer keys has
/// been forgotten and counts as a first sighting again, so shuffled
/// training (a new key every step) keeps a flat table.
///
/// acquire() is the single decision point:
///   kReplay   a captured program exists and its run lock was acquired
///             (the Lease holds it); counted as replay_hits.
///   kCapture  second sighting of the key: run eager under a Recorder and
///             store() the result; counted as replay_misses.
///   kEager    first sighting, capture already in flight on another
///             thread, or the program is busy on another thread
///             (counted as replay_misses / replay_fallbacks).
/// Thread-safe; concurrent replay of the *same* program falls back to
/// eager rather than serializing serve workers behind one slab.
class ProgramCache {
 public:
  enum class Action { kEager, kCapture, kReplay };

  struct Lease {
    Action action = Action::kEager;
    std::shared_ptr<Program> program;
    std::unique_lock<std::mutex> lock;  ///< program run lock when kReplay
  };

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t captures = 0;
    std::uint64_t evictions = 0;
  };

  /// Keys remembered between their first sighting and their capture.
  static constexpr std::size_t kSightingCapacity = 4096;

  explicit ProgramCache(std::size_t capacity = 8);

  Lease acquire(std::uint64_t key);
  /// Install a captured program (clears the key's capture-in-flight flag).
  void store(std::uint64_t key, std::shared_ptr<Program> program);
  /// Abandon a capture (non-finite step, exception): the key stays eager
  /// until a later sighting captures again.
  void abort_capture(std::uint64_t key);
  /// Drop a program whose bind/validation failed; counted as a fallback.
  /// The next sighting re-captures.
  void invalidate(std::uint64_t key);

  Stats stats() const;
  std::size_t size() const;       ///< cached programs (not sightings)
  std::size_t tracked_keys() const;  ///< every entry: programs + sightings
  std::size_t capacity() const { return capacity_; }
  /// Snapshot of every cached program (golden-tape tests inspect kernel
  /// counts without knowing the keys).
  std::vector<std::shared_ptr<Program>> programs() const;

 private:
  struct Entry {
    std::shared_ptr<Program> program;
    std::uint64_t sightings = 0;
    std::uint64_t last_used = 0;
    bool capturing = false;
  };

  /// Drop the least recently used program beyond capacity_ and sighting
  /// beyond kSightingCapacity.
  void evict_locked();

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  Stats stats_;
};

}  // namespace fastchg::replay
