// Small helpers shared by the benchmark's files: clocks, medians and
// full-precision number formatting.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic wall seconds since an arbitrary origin.
inline double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process user + system CPU seconds (all threads).
inline double CpuNow() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// Peak resident set size of the process so far, in MB (ru_maxrss is KiB).
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// All 17 significant digits, so a value reads exactly as measured.
inline std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Calls fn() until at least `min_seconds` of wall time have passed, three
// times over; returns the median per-call seconds of the three trials.
template <typename Fn>
double TimePerCall(Fn&& fn, double min_seconds) {
  std::vector<double> per_call;
  for (int t = 0; t < 3; ++t) {
    const double start = WallNow();
    int reps = 0;
    double elapsed = 0;
    do {
      fn();
      ++reps;
      elapsed = WallNow() - start;
    } while (elapsed < min_seconds);
    per_call.push_back(elapsed / reps);
  }
  return Median(per_call);
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
