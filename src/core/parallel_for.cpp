#include "core/parallel_for.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "perf/counters.hpp"

namespace fastchg {

namespace {

int initial_thread_count() {
  if (const char* env = std::getenv("FASTCHG_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Minimal fork-join pool: the caller becomes worker 0; helpers pick up the
/// remaining chunks of the current parallel_for and go back to sleep.  A
/// chunk that throws stops the hand-out of further chunks; run() waits for
/// every helper, then rethrows the first exception on the caller.
class Pool {
 public:
  explicit Pool(int workers) : target_workers_(workers) { spawn(); }

  ~Pool() { shutdown(); }

  int workers() const { return target_workers_; }

  void resize(int workers) {
    FASTCHG_CHECK(workers >= 1, "set_num_threads: " << workers);
    shutdown();
    target_workers_ = workers;
    spawn();
  }

  void run(index_t begin, index_t end, index_t chunk,
           const std::function<void(index_t, index_t)>& fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      begin_ = begin;
      end_ = end;
      chunk_ = chunk;
      fn_ = &fn;
      next_ = begin;
      busy_ = static_cast<int>(threads_.size());
      ++generation_;
    }
    cv_.notify_all();
    work();  // caller participates
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return busy_ == 0; });
      fn_ = nullptr;
      error = std::exchange(error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void spawn() {
    stop_ = false;
    // A helper spawned by resize() must not mistake the last finished
    // run's generation for new work: that spurious wake would decrement
    // busy_ a second time and could leave the caller waiting forever.
    const std::uint64_t current = generation_;
    const int helpers = target_workers_ - 1;
    for (int i = 0; i < helpers; ++i) {
      threads_.emplace_back([this, current] { helper_loop(current); });
    }
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  void helper_loop(std::uint64_t seen) {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      work();
      {
        std::lock_guard<std::mutex> lock(mu_);
        --busy_;
      }
      done_cv_.notify_all();
    }
  }

  void work() {
    while (true) {
      index_t lo;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (next_ >= end_ || fn_ == nullptr) return;
        lo = next_;
        next_ += chunk_;
      }
      const index_t hi = std::min(lo + chunk_, end_);
      try {
        (*fn_)(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
        next_ = end_;  // start no further chunk
      }
    }
  }

  int target_workers_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_, done_cv_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  int busy_ = 0;
  index_t begin_ = 0, end_ = 0, chunk_ = 1, next_ = 0;
  const std::function<void(index_t, index_t)>* fn_ = nullptr;
  std::exception_ptr error_;
};

Pool& pool() {
  static Pool p(initial_thread_count());
  return p;
}

/// Depth of pool-scheduled chunks and InlineRegions on this thread.  A
/// nested parallel_for (a tensor kernel inside a micro-batch that is itself
/// a pool chunk) must not re-enter Pool::run -- the pool's dispatch state is
/// per-call, so a re-entrant run() from a worker would corrupt it or
/// deadlock.  Nested calls run inline instead.
thread_local int t_pool_depth = 0;

}  // namespace

InlineRegion::InlineRegion() { ++t_pool_depth; }
InlineRegion::~InlineRegion() { --t_pool_depth; }

int num_threads() { return pool().workers(); }

void set_num_threads(int n) { pool().resize(n); }

void parallel_for(index_t begin, index_t end, index_t grain,
                  const std::function<void(index_t, index_t)>& fn) {
  if (end <= begin) return;
  const index_t n = end - begin;
  const int workers = pool().workers();
  if (t_pool_depth > 0 || workers == 1 || n < grain) {
    fn(begin, end);
    return;
  }
  // ~4 chunks per worker for dynamic balance, but never below the grain.
  index_t chunk = std::max<index_t>(grain, n / (4 * workers) + 1);
  const std::function<void(index_t, index_t)> guarded =
      [&fn](index_t lo, index_t hi) {
        InlineRegion depth;
        fn(lo, hi);
      };
  perf::count_pool_dispatch();
  pool().run(begin, end, chunk, guarded);
}

}  // namespace fastchg
