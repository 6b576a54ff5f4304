// Table III: average running time per epoch (seconds) for FATE, HAFLO and
// FLBooster across 3 datasets x 4 models x {1024, 2048, 4096}-bit keys.
//
// Reproduction targets (shape, per the paper's §VI-C):
//   * FLBooster beats HAFLO beats FATE everywhere;
//   * FLBooster/HAFLO speedup lands in the tens-to-hundred band
//     (paper: 14.3x - 138x);
//   * the speedup grows with key size;
//   * Avazu (widest feature space) shows the largest gains.

#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace flb::bench;
  PrintHeader("Table III — average epoch time in seconds");
  std::printf("%-12s %-10s %5s %12s %12s %12s %9s %9s\n", "Model", "Dataset",
              "key", "FATE", "HAFLO", "FLBooster", "vsFATE", "vsHAFLO");
  double min_speedup = 1e300, max_speedup = 0;
  for (auto model : kAllModels) {
    for (auto dataset : kAllDatasets) {
      for (int key : kKeySizes) {
        const double fate =
            MustRun(WorkloadFor(model, dataset, EngineKind::kFate, key))
                .total_seconds;
        const double haflo =
            MustRun(WorkloadFor(model, dataset, EngineKind::kHaflo, key))
                .total_seconds;
        const double booster =
            MustRun(WorkloadFor(model, dataset, EngineKind::kFlBooster, key))
                .total_seconds;
        const double vs_fate = fate / booster;
        const double vs_haflo = haflo / booster;
        min_speedup = std::min(min_speedup, vs_haflo);
        max_speedup = std::max(max_speedup, vs_haflo);
        std::printf("%-12s %-10s %5d %12.2f %12.2f %12.3f %8.1fx %8.1fx\n",
                    flb::core::ModelName(model).c_str(),
                    flb::fl::DatasetName(dataset).c_str(), key, fate, haflo,
                    booster, vs_fate, vs_haflo);
      }
    }
  }
  std::printf(
      "\nFLBooster speedup over HAFLO: %.1fx - %.1fx (paper: 14.3x - "
      "138x)\n",
      min_speedup, max_speedup);
  return 0;
}
