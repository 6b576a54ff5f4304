// Table V: ablation study — full FLBooster vs "w/o GHE" (CPU HE, batch
// compression kept) vs "w/o BC" (GPU HE, no compression).
//
// Shape targets (paper §VI-E): removing either module degrades every cell;
// at every key size "w/o BC" is far worse than "w/o GHE" (communication is
// the bigger bottleneck once HE is accelerated); the gap to the full system
// widens with the key size.

#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace flb::bench;
  PrintHeader("Table V — module ablation, epoch seconds");
  std::printf("%-12s %-10s %5s %12s %12s %12s\n", "Model", "Dataset", "key",
              "FLBooster", "w/o GHE", "w/o BC");
  for (auto model : kAllModels) {
    for (auto dataset : kAllDatasets) {
      for (int key : kKeySizes) {
        const double full =
            MustRun(WorkloadFor(model, dataset, EngineKind::kFlBooster, key))
                .total_seconds;
        const double no_ghe =
            MustRun(
                WorkloadFor(model, dataset, EngineKind::kFlBoosterNoGhe, key))
                .total_seconds;
        const double no_bc =
            MustRun(
                WorkloadFor(model, dataset, EngineKind::kFlBoosterNoBc, key))
                .total_seconds;
        std::printf("%-12s %-10s %5d %12.3f %12.2f %12.2f\n",
                    flb::core::ModelName(model).c_str(),
                    flb::fl::DatasetName(dataset).c_str(), key, full, no_ghe,
                    no_bc);
      }
    }
  }
  std::printf(
      "\nShape: FLBooster < w/o GHE < w/o BC in every row (paper Table "
      "V).\n");
  return 0;
}
