// Mutex / MutexLock: std::mutex with Clang thread-safety capability
// annotations (see annotations.h).
//
// libstdc++'s std::mutex is not annotated as a capability, so
// `-Wthread-safety` cannot reason about it; this wrapper re-exports the
// BasicLockable surface with the capability attributes attached, in the
// Abseil idiom. All mutex-holding classes in the platform use these types;
// tools/flb_analyze rejects raw std::mutex members.
//
// Condition variables: use common::CondVar (std::condition_variable_any)
// with a MutexLock. The wait predicate must be checked in a plain while
// loop in the annotated function body — not a lambda — so the analysis sees
// the guarded reads under the held capability:
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.wait(lock);

#ifndef FLB_COMMON_MUTEX_H_
#define FLB_COMMON_MUTEX_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/common/annotations.h"

namespace flb::common {

// Wall-clock lock-contention accounting for the host profiler plane
// (src/obs/host_profiler). Disabled by default: the only cost on every
// Mutex::lock is a try_lock fast path plus one relaxed load on the
// *contended* path. When enabled, contended acquires time their wait on the
// wall clock and record it into lock-free atomics — nothing here ever
// touches the SimClock or charged accounting, and nothing here takes a
// lock, so the recorder is safe to run from inside any component's critical
// section (including MetricsRegistry's own).
struct MutexContention {
  // Log2-nanosecond wait buckets: bucket i counts waits with
  // floor(log2(ns)) == i, clamped into [0, kNumBuckets). Bucket i therefore
  // has upper bound 2^(i+1) ns; the last bucket absorbs the overflow
  // (waits >= ~33 ms).
  static constexpr int kNumBuckets = 25;

  static inline std::atomic<bool> enabled{false};
  static inline std::atomic<uint64_t> contended_acquires{0};
  static inline std::atomic<uint64_t> total_wait_ns{0};
  static inline std::atomic<uint64_t> buckets[kNumBuckets] = {};

  static void Record(uint64_t wait_ns) {
    contended_acquires.fetch_add(1, std::memory_order_relaxed);
    total_wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
    int b = 0;
    while (b + 1 < kNumBuckets && (wait_ns >> (b + 1)) != 0) ++b;
    buckets[b].fetch_add(1, std::memory_order_relaxed);
  }

  static void Reset() {
    contended_acquires.store(0, std::memory_order_relaxed);
    total_wait_ns.store(0, std::memory_order_relaxed);
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  }
};

class FLB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FLB_ACQUIRE() {
    if (mu_.try_lock()) return;
    if (!MutexContention::enabled.load(std::memory_order_relaxed)) {
      mu_.lock();
      return;
    }
    // Wall-clock profiling of the *wait*, never of simulated time; the
    // sample feeds only the observability plane (flb.host.lock_* metrics).
    // flb-lint: allow-next-line(FLB001) lock-contention wall profiling, observability-only
    const auto start = std::chrono::steady_clock::now();
    mu_.lock();
    // flb-lint: allow-next-line(FLB001) lock-contention wall profiling, observability-only
    const auto wait = std::chrono::steady_clock::now() - start;
    MutexContention::Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count()));
  }
  void unlock() FLB_RELEASE() { mu_.unlock(); }
  bool try_lock() FLB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  // flb-lint: allow-next-line(FLB004) the capability wrapper's backing lock
  std::mutex mu_;
};

// RAII lock scope over a Mutex (the std::lock_guard of this codebase).
class FLB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FLB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() FLB_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // BasicLockable surface for CondVar::wait, which unlocks and relocks
  // around the block. The capability is logically held across the wait
  // (the waiter re-checks its predicate under the lock), so these are
  // deliberately invisible to the analysis.
  void lock() FLB_NO_THREAD_SAFETY_ANALYSIS { mu_.lock(); }
  void unlock() FLB_NO_THREAD_SAFETY_ANALYSIS { mu_.unlock(); }

 private:
  Mutex& mu_;
};

// Condition variable usable with MutexLock (any BasicLockable).
using CondVar = std::condition_variable_any;

}  // namespace flb::common

#endif  // FLB_COMMON_MUTEX_H_
