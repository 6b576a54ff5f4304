// Figure 7: the batch-compression ratio of FLBooster vs key size, per model.
//
// Measured as the ratio of communication bytes without BC (the "w/o BC"
// ablation) to bytes with BC, over identical training workloads. Shape
// targets: two orders of magnitude possible at 4096 bits; the ratio grows
// with the key size (more slots fit in a larger plaintext); roughly
// dataset-independent.

#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace flb::bench;
  PrintHeader("Fig. 7 — batch-compression ratio vs key size");
  std::printf("%-12s %5s %16s %16s %14s\n", "Model", "key", "bytes w/o BC",
              "bytes w/ BC", "ratio");
  for (auto model : kAllModels) {
    for (int key : kKeySizes) {
      const auto dataset = flb::fl::DatasetKind::kRcv1;
      const auto with_bc =
          MustRun(WorkloadFor(model, dataset, EngineKind::kFlBooster, key));
      const auto without_bc = MustRun(
          WorkloadFor(model, dataset, EngineKind::kFlBoosterNoBc, key));
      const double ratio = static_cast<double>(without_bc.comm_bytes) /
                           static_cast<double>(with_bc.comm_bytes);
      std::printf("%-12s %5d %16llu %16llu %13.1fx\n",
                  flb::core::ModelName(model).c_str(), key,
                  static_cast<unsigned long long>(without_bc.comm_bytes),
                  static_cast<unsigned long long>(with_bc.comm_bytes), ratio);
    }
  }
  std::printf(
      "\nShape: ratio grows with key size, reaching two orders of magnitude "
      "(paper Fig. 7).\n");
  return 0;
}
