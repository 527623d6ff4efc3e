#include "perf/counters.hpp"

#include <mutex>

namespace fastchg::perf {

namespace {

/// Serializes every counter mutation.  Kernel launches and tensor
/// allocations fire from pool workers when the serve layer runs independent
/// micro-batches concurrently; an uncontended lock costs tens of
/// nanoseconds against ops that touch whole tensors, so this stays cheap.
std::mutex& counters_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

Counters& counters() {
  static Counters c;
  return c;
}

Counters Counters::snapshot() const {
  std::lock_guard<std::mutex> lock(counters_mutex());
  return *this;
}

void Counters::reset() {
  std::lock_guard<std::mutex> lock(counters_mutex());
  kernel_launches = 0;
  per_op.clear();
  alloc_count = 0;
  events.clear();
  bytes_peak = bytes_live;
  pool_hits = 0;
  pool_misses = 0;
  system_allocs = 0;
  pool_trimmed_bytes = 0;
  // Slabs survive resets by design (they are the warm state pooling exists
  // for); the high-water mark rebases onto them like bytes_peak does onto
  // bytes_live.
  pool_high_water = pool_slab_bytes;
}

void count_kernel(const char* name) { count_kernels(name, 1); }

void count_kernels(const char* name, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(counters_mutex());
  Counters& c = counters();
  c.kernel_launches += n;
  if (c.per_op_enabled) c.per_op[name] += n;
}

void track_alloc(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(counters_mutex());
  Counters& c = counters();
  c.bytes_live += bytes;
  c.alloc_count += 1;
  if (c.bytes_live > c.bytes_peak) c.bytes_peak = c.bytes_live;
}

void track_free(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(counters_mutex());
  Counters& c = counters();
  c.bytes_live -= (bytes <= c.bytes_live) ? bytes : c.bytes_live;
}

void track_system_alloc() {
  std::lock_guard<std::mutex> lock(counters_mutex());
  counters().system_allocs += 1;
}

void track_pool_hit() {
  std::lock_guard<std::mutex> lock(counters_mutex());
  counters().pool_hits += 1;
}

void track_pool_miss() {
  std::lock_guard<std::mutex> lock(counters_mutex());
  counters().pool_misses += 1;
}

void track_pool_slab(std::int64_t delta) {
  std::lock_guard<std::mutex> lock(counters_mutex());
  Counters& c = counters();
  if (delta >= 0) {
    c.pool_slab_bytes += static_cast<std::uint64_t>(delta);
  } else {
    const auto d = static_cast<std::uint64_t>(-delta);
    c.pool_slab_bytes -= (d <= c.pool_slab_bytes) ? d : c.pool_slab_bytes;
  }
  if (c.pool_slab_bytes > c.pool_high_water) {
    c.pool_high_water = c.pool_slab_bytes;
  }
}

void track_pool_trim(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(counters_mutex());
  counters().pool_trimmed_bytes += bytes;
}

void count_event(const char* name, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(counters_mutex());
  counters().events[name] += n;
}

std::uint64_t event_count(const std::string& name) {
  std::lock_guard<std::mutex> lock(counters_mutex());
  const Counters& c = counters();
  auto it = c.events.find(name);
  return it == c.events.end() ? 0 : it->second;
}

void reset_events() {
  std::lock_guard<std::mutex> lock(counters_mutex());
  counters().events.clear();
}

void reset_kernels() {
  std::lock_guard<std::mutex> lock(counters_mutex());
  Counters& c = counters();
  c.kernel_launches = 0;
  c.per_op.clear();
}

void reset_peak() {
  std::lock_guard<std::mutex> lock(counters_mutex());
  Counters& c = counters();
  c.bytes_peak = c.bytes_live;
}

void set_per_op(bool enabled) {
  std::lock_guard<std::mutex> lock(counters_mutex());
  counters().per_op_enabled = enabled;
}

}  // namespace fastchg::perf
