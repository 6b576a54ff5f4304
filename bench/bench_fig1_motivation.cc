// Figure 1: the motivation plot — running time of one FATE epoch for the
// four standard FL models at 1024-bit keys, decomposed into HE operations,
// communication, and everything else.
//
// The paper's claim this regenerates: HE takes > 50% and communication
// > 40% of a FATE epoch, for every model.

#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace flb::bench;
  PrintHeader("Fig. 1 — FATE epoch time breakdown at 1024-bit keys");
  std::printf("%-12s %-10s %12s %8s %8s %8s\n", "Model", "Dataset",
              "epoch (s)", "HE %", "comm %", "other %");
  for (auto model : kAllModels) {
    for (auto dataset : kAllDatasets) {
      auto cfg = WorkloadFor(model, dataset, EngineKind::kFate, 1024);
      auto report = MustRun(cfg);
      const double total = report.total_seconds;
      std::printf("%-12s %-10s %12.2f %7.1f%% %7.1f%% %7.1f%%\n",
                  flb::core::ModelName(model).c_str(),
                  flb::fl::DatasetName(dataset).c_str(), total,
                  100.0 * report.he_seconds / total,
                  100.0 * report.comm_seconds / total,
                  100.0 * report.other_seconds / total);
    }
  }
  std::printf(
      "\nPaper's claim: HE > 50%% and communication > 40%% of every FATE "
      "epoch.\n");
  return 0;
}
