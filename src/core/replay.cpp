#include "core/replay.hpp"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "core/error.hpp"
#include "perf/counters.hpp"
#include "perf/trace.hpp"

namespace fastchg::replay {

namespace {

bool env_replay_default() {
  const char* v = std::getenv("FASTCHG_REPLAY");
  if (v == nullptr) return true;
  return !(std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
           std::strcmp(v, "OFF") == 0 || std::strcmp(v, "false") == 0);
}

std::atomic<bool>& replay_flag() {
  static std::atomic<bool> on{env_replay_default()};
  return on;
}

thread_local Recorder* tl_recorder = nullptr;

}  // namespace

bool replay_enabled() { return replay_flag().load(std::memory_order_relaxed); }

void set_replay_enabled(bool on) {
  replay_flag().store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Program

Program::~Program() {
  if (slab_.defined()) {
    perf::track_replay_plan_bytes(
        -static_cast<std::int64_t>(plan_.slab_bytes));
  }
}

bool Program::bind(const std::vector<Tensor>& inputs,
                   const std::vector<Tensor>& stable) {
  perf::TraceSpan span("replay.bind", "replay");
  // Tier pinning: the tape's closures dispatch through ops::active_tier()
  // at run time, so a program captured under another tier would silently
  // mix kernels from two tiers in one step.  Refuse; the caller runs eager
  // and recaptures under the current tier.
  if (ops::active_tier() != tier_) return false;
  if (inputs.size() != bound_slots_.size()) return false;
  if (stable.size() != stable_ptrs_.size()) return false;
  // Stable pointers first: a replaced storage (checkpoint restore,
  // set_atom_ref, a grad re-seated by set_grad) means the baked addresses
  // are stale and the program must be recaptured.
  for (std::size_t i = 0; i < stable.size(); ++i) {
    const float* now = stable[i].defined() ? stable[i].data() : nullptr;
    if (now != stable_ptrs_[i]) return false;
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const int slot = bound_slots_[i];
    if (slot < 0) {
      // Undefined at capture (e.g. labels in a no-label serve batch); the
      // replay batch must agree.
      if (inputs[i].defined()) return false;
      continue;
    }
    if (!inputs[i].defined()) return false;
    if (inputs[i].numel() != bound_numel_[i]) return false;
    slots_[static_cast<std::size_t>(slot)] =
        const_cast<float*>(inputs[i].data());
  }
  return true;
}

void Program::run() {
  perf::TraceSpan span("replay.run", "replay");
  float* const* table = slots_.data();
  for (const Step& s : steps_) s.fn(table);
  // Kernel accounting: one aggregated record per distinct op name, so the
  // launch counters match what the eager kernels would have recorded.
  for (const auto& [name, n] : kernel_counts_) perf::count_kernels(name, n);
  for (std::size_t i = 0; i < tap_slots_.size(); ++i) {
    Tensor& dst = taps_[i];
    const float* src = slots_[static_cast<std::size_t>(tap_slots_[i])];
    std::memcpy(dst.data(), src,
                static_cast<std::size_t>(dst.numel()) * sizeof(float));
  }
}

Tensor Program::tap_value(std::size_t i) const {
  FASTCHG_CHECK(i < taps_.size(), "replay tap index out of range");
  return taps_[i];
}

// ---------------------------------------------------------------------------
// Recorder

Recorder::Recorder() : tier_(ops::active_tier()) {
  // Mix the tier into the FNV basis so same-structure tapes captured under
  // different tiers get distinct fingerprints.
  fingerprint_ ^= static_cast<std::uint64_t>(tier_) + 0x9e3779b97f4a7c15ull;
  fingerprint_ *= 1099511628211ull;
}

Recorder* Recorder::active() { return tl_recorder; }

int Recorder::slot_for(const Tensor& t, bool as_output) {
  FASTCHG_CHECK(t.defined(), "replay: slot for undefined tensor");
  const float* p = t.data();
  auto it = by_ptr_.find(p);
  if (it != by_ptr_.end()) return it->second;
  const int id = static_cast<int>(slots_.size());
  SlotInfo info;
  info.numel = t.numel();
  info.planned = as_output;
  slots_.push_back(info);
  // Pin the storage for the duration of the capture so the pool cannot
  // recycle this address into a later, different tensor (which would merge
  // two logically distinct slots).  finish() drops the pins for planned
  // and bound slots and retains only the baked ones.
  pinned_.push_back(t);
  by_ptr_.emplace(p, id);
  return id;
}

void Recorder::bind_input(const Tensor& t) {
  if (!t.defined()) {
    bound_slots_.push_back(-1);
    bound_numel_.push_back(0);
    return;
  }
  bound_slots_.push_back(slot_for(t, /*as_output=*/false));
  bound_numel_.push_back(t.numel());
}

void Recorder::expect_stable(const Tensor& t) {
  stable_ptrs_.push_back(t.defined() ? t.data() : nullptr);
  if (t.defined()) slot_for(t, /*as_output=*/false);  // pin it too
}

void Recorder::tap(const Tensor& t) {
  FASTCHG_CHECK(t.defined(), "replay: tap of undefined tensor");
  tap_slots_.push_back(slot_for(t, /*as_output=*/false));
  tap_shapes_.push_back(t.shape());
}

void Recorder::push(const char* op, bool counted, const std::vector<int>& ins,
                    int out, StepFn fn) {
  std::vector<int> outs;
  if (out >= 0) outs.push_back(out);
  push_step(op, counted, ins, std::move(outs), std::move(fn));
}

void Recorder::push(const char* op, bool counted, const std::vector<int>& ins,
                    const std::vector<int>& outs, StepFn fn) {
  push_step(op, counted, ins, outs, std::move(fn));
}

void Recorder::push_step(const char* op, bool counted,
                         const std::vector<int>& ins, std::vector<int> outs,
                         StepFn fn) {
  fingerprint_ ^= 0x9e3779b97f4a7c15ull;
  KeyBuilder kb;
  kb.h = fingerprint_;
  kb.mix_bytes(op, std::strlen(op));
  kb.mix(counted ? 1u : 2u);
  kb.mix(static_cast<std::uint64_t>(ins.size()));
  for (int s : ins) kb.mix(static_cast<std::uint64_t>(s));
  for (int o : outs) kb.mix(static_cast<std::uint64_t>(o) + 7u);
  fingerprint_ = kb.h;
  tape_.push_back(TapeEntry{op, counted, ins, std::move(outs), std::move(fn)});
}

void Recorder::note_accumulate(const Tensor& dst, const Tensor& src) {
  const int d = slot_for(dst, /*as_output=*/false);
  const int s = slot_for(src, /*as_output=*/false);
  const index_t n = dst.numel();
  push("grad_accum", /*counted=*/false, {d, s}, d,
       [d, s, n](float* const* S) {
         float* dp = S[d];
         const float* sp = S[s];
         for (index_t i = 0; i < n; ++i) dp[i] += sp[i];
       });
}

int Recorder::note_input(const Tensor& t) {
  return slot_for(t, /*as_output=*/false);
}

int Recorder::note_output(const Tensor& t) {
  return slot_for(t, /*as_output=*/true);
}

std::shared_ptr<Program> Recorder::finish() {
  FASTCHG_CHECK(!finished_, "replay: Recorder::finish() called twice");
  finished_ = true;

  // Lifetime scan over the tape: a planned slot lives from its first to its
  // last access.
  struct Life {
    int def = -1;
    int last = -1;
  };
  std::vector<Life> life(slots_.size());
  for (std::size_t idx = 0; idx < tape_.size(); ++idx) {
    const int at = static_cast<int>(idx);
    auto touch = [&](int slot) {
      if (!slots_[static_cast<std::size_t>(slot)].planned) return;
      Life& l = life[static_cast<std::size_t>(slot)];
      if (l.def < 0) l.def = at;
      l.last = at;
    };
    for (int s : tape_[idx].ins) touch(s);
    for (int o : tape_[idx].outs) touch(o);
  }
  // Taps must survive to the end of the program (they are copied out after
  // the last step), whatever their last recorded reader was.
  const int end = tape_.empty() ? 0 : static_cast<int>(tape_.size()) - 1;
  for (int ts : tap_slots_) {
    Life& l = life[static_cast<std::size_t>(ts)];
    if (slots_[static_cast<std::size_t>(ts)].planned && l.def >= 0) {
      l.last = std::max(l.last, end);
    }
  }

  // Lifetimes -> static plan.  Only planned slots (op outputs) get slab
  // offsets; bound and baked slots keep external storage.
  std::vector<BufferLife> lives;
  std::vector<int> planned_slots;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].planned || life[i].def < 0) continue;
    BufferLife b;
    b.bytes = static_cast<std::size_t>(slots_[i].numel) * sizeof(float);
    b.def = life[i].def;
    b.last = life[i].last;
    lives.push_back(b);
    planned_slots.push_back(static_cast<int>(i));
  }
  MemPlan plan = plan_memory(std::move(lives));

  // Replay kernel accounting: the tape's counted steps, aggregated per
  // distinct op name.
  std::vector<std::pair<const char*, std::uint64_t>> counts;
  std::uint64_t counted = 0;
  for (const auto& s : tape_) {
    if (!s.counted) continue;
    ++counted;
    bool merged = false;
    for (auto& [name, n] : counts) {
      if (name == s.op || std::strcmp(name, s.op) == 0) {
        n += 1;
        merged = true;
        break;
      }
    }
    if (!merged) counts.emplace_back(s.op, 1);
  }

  auto prog = std::shared_ptr<Program>(new Program());
  prog->plan_ = std::move(plan);
  prog->steps_.reserve(tape_.size());
  for (auto& s : tape_) {
    prog->steps_.push_back(Program::Step{s.op, std::move(s.fn)});
  }
  tape_.clear();
  prog->fingerprint_ = fingerprint_;
  prog->tier_ = tier_;
  prog->counted_ = counted;
  prog->bound_slots_ = std::move(bound_slots_);
  prog->bound_numel_ = std::move(bound_numel_);
  prog->stable_ptrs_ = std::move(stable_ptrs_);
  prog->tap_slots_ = std::move(tap_slots_);
  prog->tap_shapes_ = std::move(tap_shapes_);
  prog->kernel_counts_ = std::move(counts);

  // Materialize the slab and resolve every slot to its final pointer.
  const std::size_t slab_bytes = prog->plan_.slab_bytes;
  if (slab_bytes > 0) {
    prog->slab_ = Tensor::zeros(
        {static_cast<index_t>((slab_bytes + sizeof(float) - 1) /
                              sizeof(float))});
  } else {
    prog->slab_ = Tensor::zeros({1});
  }
  perf::track_replay_plan_bytes(static_cast<std::int64_t>(slab_bytes));

  prog->slots_.assign(slots_.size(), nullptr);
  float* slab_base = prog->slab_.data();
  // The slab rides a pool/system tensor, so the arena contract applies;
  // memplan offsets are 64-byte multiples, keeping every planned slot
  // aligned too.
  assert(reinterpret_cast<std::uintptr_t>(slab_base) % alloc::kArenaAlign ==
         0);
  for (std::size_t k = 0; k < planned_slots.size(); ++k) {
    const int slot = planned_slots[k];
    const std::size_t off = prog->plan_.buffers[k].offset;
    prog->slots_[static_cast<std::size_t>(slot)] =
        slab_base + off / sizeof(float);
    prog->planned_.emplace_back(slot, off);
  }
  // Baked slots: everything that is neither planned nor bound keeps its
  // capture-time storage, retained by the program so in-place updates
  // (Adam moments applied to params, grad accumulators, zero_grad fills)
  // stay visible through a stable address.
  std::vector<char> is_bound(slots_.size(), 0);
  for (int bs : prog->bound_slots_) {
    if (bs >= 0) is_bound[static_cast<std::size_t>(bs)] = 1;
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].planned || is_bound[i]) continue;
    prog->baked_.push_back(pinned_[i]);
    prog->slots_[i] = pinned_[i].data();
  }
  // Taps are copied into preallocated tensors on every run().
  for (const Shape& s : prog->tap_shapes_) {
    prog->taps_.push_back(Tensor::zeros(s));
  }

  pinned_.clear();
  by_ptr_.clear();
  return prog;
}

// ---------------------------------------------------------------------------
// RecorderScope

RecorderScope::RecorderScope(Recorder& r) : prev_(tl_recorder) {
  tl_recorder = &r;
}

RecorderScope::~RecorderScope() { tl_recorder = prev_; }

// ---------------------------------------------------------------------------
// ProgramCache

ProgramCache::ProgramCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

ProgramCache::Lease ProgramCache::acquire(std::uint64_t key) {
  Lease lease;
  if (!replay_enabled()) return lease;  // inert: no counters, no state
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  ++clock_;
  auto [pos, inserted] = entries_.try_emplace(key);
  Entry& e = pos->second;
  e.last_used = clock_;
  ++e.sightings;
  if (inserted) evict_locked();  // e is the newest entry, never the victim
  if (e.program) {
    std::unique_lock<std::mutex> run_lock(e.program->run_mu_,
                                          std::try_to_lock);
    if (run_lock.owns_lock()) {
      ++stats_.hits;
      perf::track_replay_hit();
      lease.action = Action::kReplay;
      lease.program = e.program;
      lease.lock = std::move(run_lock);
      return lease;
    }
    // Another worker is replaying this exact program; running eager beats
    // serializing behind its slab.
    ++stats_.misses;
    ++stats_.fallbacks;
    perf::track_replay_miss();
    perf::track_replay_fallback();
    return lease;
  }
  ++stats_.misses;
  perf::track_replay_miss();
  // Capture on the *second* sighting: the first eager pass warms state the
  // tape must see in steady form (gradient accumulators exist, so backward
  // records `grad += g` instead of the first-touch clone).
  if (e.sightings >= 2 && !e.capturing) {
    e.capturing = true;
    lease.action = Action::kCapture;
  }
  return lease;
}

void ProgramCache::store(std::uint64_t key,
                         std::shared_ptr<Program> program) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;  // invalidated while capturing
  it->second.capturing = false;
  it->second.program = std::move(program);
  ++stats_.captures;
  perf::track_replay_capture();
  evict_locked();
}

void ProgramCache::abort_capture(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) it->second.capturing = false;
}

void ProgramCache::invalidate(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.fallbacks;
  perf::track_replay_fallback();
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  // Reset the warm-up count too: whatever invalidated the program (storage
  // replacement) warrants a fresh eager sighting before re-capture.
  it->second.program.reset();
  it->second.sightings = 1;
  it->second.capturing = false;
}

ProgramCache::Stats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<std::shared_ptr<Program>> ProgramCache::programs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Program>> out;
  for (const auto& [k, e] : entries_) {
    if (e.program) out.push_back(e.program);
  }
  return out;
}

std::size_t ProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [k, e] : entries_) {
    if (e.program) ++n;
  }
  return n;
}

std::size_t ProgramCache::tracked_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void ProgramCache::evict_locked() {
  // Two LRUs over the same map, both by last_used: entries holding programs
  // (at most capacity_) and sighting-only entries, keys seen but neither
  // captured nor capturing (at most kSightingCapacity; shuffled training
  // sees a new key every step).  Capturing entries are never evicted.
  struct Oldest {
    std::size_t count = 0;
    std::uint64_t key = 0, used = 0;
    void see(std::uint64_t k, std::uint64_t u) {
      if (count++ == 0 || u < used) {
        key = k;
        used = u;
      }
    }
  };
  while (true) {
    Oldest programs, sightings;
    for (const auto& [k, e] : entries_) {
      if (e.program) {
        programs.see(k, e.last_used);
      } else if (!e.capturing) {
        sightings.see(k, e.last_used);
      }
    }
    const bool over_programs = programs.count > capacity_;
    const bool over_sightings = sightings.count > kSightingCapacity;
    if (!over_programs && !over_sightings) break;
    if (over_programs) {
      entries_.erase(programs.key);
      ++stats_.evictions;
    }
    if (over_sightings) entries_.erase(sightings.key);
  }
}

}  // namespace fastchg::replay
