#include "src/obs/host_profiler.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "src/common/env.h"

namespace flb::obs {

namespace {

// Wall-clock by design: this file IS the wall plane (see header). Nothing
// derived from these stamps ever reaches charged accounting; flb_analyze
// allowlists this file for FLB001.
uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t PackTrack(Track track) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(track.pid)) << 32) |
         static_cast<uint32_t>(track.tid);
}

Track UnpackTrack(uint64_t packed) {
  return Track{static_cast<int>(packed >> 32),
               static_cast<int>(packed & 0xffffffffu)};
}

}  // namespace

HostProfiler& HostProfiler::Global() {
  static HostProfiler* profiler = new HostProfiler();  // never destroyed:
  // workers may still observe it during static teardown.
  return *profiler;
}

void HostProfiler::EnableFromEnv() {
  if (common::Env::Flag("FLB_HOST_PROFILE")) Global().Enable();
}

void HostProfiler::Enable() {
  if (enabled_.exchange(true, std::memory_order_acq_rel)) return;
  uint64_t expected = 0;
  base_ns_.compare_exchange_strong(expected, NowNs(),
                                   std::memory_order_acq_rel);
  common::MutexContention::enabled.store(true, std::memory_order_relaxed);
  if (!source_registered_.exchange(true)) {
    MetricsRegistry::Global().RegisterSource(this);
  }
  common::ThreadPool::SetObserver(this);
}

void HostProfiler::Disable() {
  if (!enabled_.exchange(false, std::memory_order_acq_rel)) return;
  common::ThreadPool::SetObserver(nullptr);
  common::MutexContention::enabled.store(false, std::memory_order_relaxed);
  if (source_registered_.exchange(false)) {
    MetricsRegistry::Global().UnregisterSource(this);
  }
}

Track HostProfiler::WallTrack(int worker) {
  auto& slot = track_cache_[worker];
  uint64_t packed = slot.load(std::memory_order_acquire);
  if (packed == 0) {
    const Track track = TraceRecorder::Global().RegisterTrack(
        "host.wall", "worker " + std::to_string(worker));
    packed = PackTrack(track);
    slot.store(packed, std::memory_order_release);
  }
  return UnpackTrack(packed);
}

Track HostProfiler::QueueTrack() {
  uint64_t packed = queue_track_cache_.load(std::memory_order_acquire);
  if (packed == 0) {
    const Track track =
        TraceRecorder::Global().RegisterTrack("host.wall", "queue");
    packed = PackTrack(track);
    queue_track_cache_.store(packed, std::memory_order_release);
  }
  return UnpackTrack(packed);
}

double HostProfiler::WallSeconds(uint64_t ns) const {
  const uint64_t base = base_ns_.load(std::memory_order_relaxed);
  return ns > base ? static_cast<double>(ns - base) * 1e-9 : 0.0;
}

void HostProfiler::OnTask(const TaskEvent& event) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const int w = std::clamp(event.worker, 0, kMaxWorkers - 1);
  WorkerStats& ws = workers_[w];
  const uint64_t dur_ns =
      event.end_ns > event.start_ns ? event.end_ns - event.start_ns : 0;
  ws.busy_ns.fetch_add(dur_ns, std::memory_order_relaxed);
  ws.tasks.fetch_add(1, std::memory_order_relaxed);
  if (event.stolen) ws.steals.fetch_add(1, std::memory_order_relaxed);
  queue_depth_.store(event.queue_depth, std::memory_order_relaxed);

  TraceRecorder& recorder = TraceRecorder::Global();
  if (!recorder.enabled()) return;
  const double start = WallSeconds(event.start_ns);
  const double end = WallSeconds(event.end_ns);
  recorder.Span(WallTrack(w), event.stolen ? "steal" : "task", "wall", start,
                end,
                {Arg("chunk_begin", event.chunk_begin),
                 Arg("chunk_end", event.chunk_end),
                 Arg("queue_depth", event.queue_depth)});
  recorder.Counter(QueueTrack(), "flb.host.queue_depth", start,
                   static_cast<double>(event.queue_depth));
}

void HostProfiler::OnIdle(int worker, uint64_t start_ns, uint64_t end_ns) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const int w = std::clamp(worker, 0, kMaxWorkers - 1);
  const uint64_t dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  workers_[w].idle_ns.fetch_add(dur_ns, std::memory_order_relaxed);

  TraceRecorder& recorder = TraceRecorder::Global();
  if (!recorder.enabled()) return;
  recorder.Span(WallTrack(w), "idle", "wall", WallSeconds(start_ns),
                WallSeconds(end_ns));
}

void HostProfiler::CollectMetrics(std::vector<MetricValue>& out) const {
  for (int w = 0; w < kMaxWorkers; ++w) {
    const WorkerStats& ws = workers_[w];
    const uint64_t tasks = ws.tasks.load(std::memory_order_relaxed);
    const uint64_t idle_ns = ws.idle_ns.load(std::memory_order_relaxed);
    if (tasks == 0 && idle_ns == 0) continue;
    const std::string labels = "worker=" + std::to_string(w);
    const auto add = [&](const char* name, MetricType type, double value) {
      MetricValue m;
      m.name = name;
      m.labels = labels;
      m.type = type;
      m.value = value;
      out.push_back(std::move(m));
    };
    add("flb.host.busy_ms", MetricType::kCounter,
        static_cast<double>(ws.busy_ns.load(std::memory_order_relaxed)) *
            1e-6);
    add("flb.host.idle_ms", MetricType::kCounter,
        static_cast<double>(idle_ns) * 1e-6);
    add("flb.host.profiled_tasks", MetricType::kCounter,
        static_cast<double>(tasks));
    add("flb.host.profiled_steals", MetricType::kCounter,
        static_cast<double>(ws.steals.load(std::memory_order_relaxed)));
  }

  {
    MetricValue m;
    m.name = "flb.host.queue_depth";
    m.type = MetricType::kGauge;
    m.value =
        static_cast<double>(queue_depth_.load(std::memory_order_relaxed));
    out.push_back(std::move(m));
  }

  const uint64_t contended =
      common::MutexContention::contended_acquires.load(
          std::memory_order_relaxed);
  {
    MetricValue m;
    m.name = "flb.host.lock_contended";
    m.type = MetricType::kCounter;
    m.value = static_cast<double>(contended);
    out.push_back(std::move(m));
  }
  {
    // Contention-wait histogram in the registry's sparse convention:
    // zero-count buckets omitted, overflow bucket mapped to le=+inf (the
    // Prometheus encoder re-adds cumulative semantics and the +Inf line).
    MetricValue m;
    m.name = "flb.host.lock_wait_seconds";
    m.type = MetricType::kHistogram;
    m.count = contended;
    m.value = static_cast<double>(common::MutexContention::total_wait_ns.load(
                  std::memory_order_relaxed)) *
              1e-9;
    for (int b = 0; b < common::MutexContention::kNumBuckets; ++b) {
      const uint64_t count =
          common::MutexContention::buckets[b].load(std::memory_order_relaxed);
      if (count == 0) continue;
      HistogramBucket bucket;
      // Bucket b covers waits < 2^(b+1) ns; the last absorbs the rest.
      bucket.le = b + 1 < common::MutexContention::kNumBuckets
                      ? static_cast<double>(uint64_t{1} << (b + 1)) * 1e-9
                      : std::numeric_limits<double>::infinity();
      bucket.count = count;
      m.buckets.push_back(bucket);
    }
    out.push_back(std::move(m));
  }
}

void HostProfiler::ResetMetrics() {
  for (WorkerStats& ws : workers_) {
    ws.busy_ns.store(0, std::memory_order_relaxed);
    ws.idle_ns.store(0, std::memory_order_relaxed);
    ws.tasks.store(0, std::memory_order_relaxed);
    ws.steals.store(0, std::memory_order_relaxed);
  }
  queue_depth_.store(0, std::memory_order_relaxed);
  common::MutexContention::Reset();
}

}  // namespace flb::obs
