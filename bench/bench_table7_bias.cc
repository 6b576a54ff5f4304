// Table VII: convergence bias at 1024-bit keys — the relative difference
// between the loss reached by FLBooster (quantized, packed) and the loss of
// the same protocol with near-lossless encoding (FATE's float-precision
// encoding stands in as the r=52 / 48-fractional-bit configuration).
//
//   Bias = |L_lossless - L_FLBooster| / L_lossless        (paper Eq. 15)
//
// Shape targets: well under 5% everywhere; LR models under ~0.5%; SBT/NN
// somewhat larger (more sensitive to quantization).

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace flb::bench;
  PrintHeader("Table VII — convergence bias at 1024-bit keys (Eq. 15)");
  std::printf("%-12s %-10s %14s %14s %9s\n", "Model", "Dataset",
              "lossless loss", "FLBooster", "bias");
  double worst = 0;
  for (auto model : kAllModels) {
    for (auto dataset : kAllDatasets) {
      auto base_cfg = WorkloadFor(model, dataset, EngineKind::kFlBooster, 1024);
      base_cfg.train.max_epochs = 4;
      base_cfg.train.tolerance = 0;

      // FLBooster's production encoding: r + b = 32, 20-24 fractional bits.
      auto quantized = MustRun(base_cfg);

      // Near-lossless reference: the widest encodings the slots allow.
      auto lossless_cfg = base_cfg;
      lossless_cfg.r_bits = 52;
      lossless_cfg.frac_bits = 48;
      lossless_cfg.fp_compress_slot_bits = 0;
      auto lossless = MustRun(lossless_cfg);

      const double bias =
          std::fabs(lossless.train.final_loss - quantized.train.final_loss) /
          lossless.train.final_loss;
      worst = std::max(worst, bias);
      std::printf("%-12s %-10s %14.6f %14.6f %8.3f%%\n",
                  flb::core::ModelName(model).c_str(),
                  flb::fl::DatasetName(dataset).c_str(),
                  lossless.train.final_loss, quantized.train.final_loss,
                  100.0 * bias);
    }
  }
  std::printf(
      "\nWorst-case bias %.3f%% — paper Table VII reports 0.2%%-3.3%%, all "
      "'much less than 5%%'.\n",
      100.0 * worst);
  return 0;
}
