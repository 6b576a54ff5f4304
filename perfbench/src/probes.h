// Per-layer probes for the traced run.
//
// Each probe times one public call of one layer on the workload's key and
// shapes, under a span, and adds its metric. The layer names follow the
// repository's modules: common, mpint, crypto, codec, core, net, gpusim,
// sim, fl.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "perfbench/src/stack.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

using MetricSet = std::vector<Metric>;

// Operations attempted and failed; every failure keeps its description.
class Ledger {
 public:
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// mpint, crypto, codec and net probes at the cell's key size.
void ProbeKernels(const flb::core::PlatformConfig& cell, SpanRecorder* spans,
                  int parent, MetricSet* out, Ledger* ledger);

// core probes: replays the HeService calls the trainers make, on a fresh
// service with the cell's options, checks that every replayed result
// decrypts back to its input, and adds the per-call times plus
// core.he_wall_share (replayed per-op cost x `run`'s op counts / its
// train_s).
void ProbeCore(const flb::core::PlatformConfig& cell, const StackRun& run,
               SpanRecorder* spans, int parent, MetricSet* out,
               Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
