// Figure 8: convergence — training loss against elapsed (simulated) time on
// the Synthetic dataset at 1024-bit keys, for all four models under FATE,
// HAFLO, and FLBooster.
//
// Shape targets: every engine walks the SAME loss trajectory per epoch
// (acceleration does not change learning), but FLBooster reaches each loss
// level tens-to-hundreds of times sooner than FATE and an order of
// magnitude sooner than HAFLO.

#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace flb::bench;
  PrintHeader("Fig. 8 — convergence on Synthetic @ 1024-bit keys");
  for (auto model : kAllModels) {
    std::printf("\n-- %s: loss vs cumulative simulated seconds --\n",
                flb::core::ModelName(model).c_str());
    std::printf("%-10s", "Method");
    const int epochs = 5;
    for (int e = 0; e < epochs; ++e) std::printf("   epoch%-2d        ", e);
    std::printf("\n");
    const EngineKind engines[] = {EngineKind::kFate, EngineKind::kHaflo,
                                  EngineKind::kFlBooster};
    double time_to_final[3] = {0, 0, 0};
    for (int ei = 0; ei < 3; ++ei) {
      auto cfg =
          WorkloadFor(model, flb::fl::DatasetKind::kSynthetic, engines[ei], 1024);
      cfg.train.max_epochs = epochs;
      cfg.train.tolerance = 0;  // run all epochs for a full curve
      auto report = MustRun(cfg);
      std::printf("%-10s", flb::core::EngineName(engines[ei]).c_str());
      for (const auto& epoch : report.train.epochs) {
        std::printf("  %7.4f@%-8.1f", epoch.loss, epoch.sim_seconds_cum);
      }
      std::printf("\n");
      time_to_final[ei] = report.total_seconds;
    }
    std::printf(
        "   time to final loss: FATE/FLBooster = %.1fx, HAFLO/FLBooster = "
        "%.1fx\n",
        time_to_final[0] / time_to_final[2],
        time_to_final[1] / time_to_final[2]);
  }
  std::printf(
      "\nShape: identical per-epoch losses, FLBooster fastest by 1-2 orders "
      "of magnitude (paper Fig. 8: 28.7x-144.3x vs FATE, 14.3x-75.2x vs "
      "HAFLO).\n");
  return 0;
}
