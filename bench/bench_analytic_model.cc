// Eqs. 10-14: the paper's analytic acceleration model against the
// simulator's measurements.
//
//   Eq. 10  AC_ghe  = t_cpu / t_gpu for a batch of HE ops
//   Eq. 11  CompressionRatio = n / ceil(n / floor(k/(r+ceil(log2 p))))
//   Eq. 12  PSU <= 1
//   Eq. 13  AC_bc = CompressionRatio
//   Eq. 14  AC = AC_ghe * AC_bc
//
// The bench sweeps batch size and key size, prints the analytic prediction
// next to the measured ratio, and checks Eq. 14's composition against an
// end-to-end Homo LR run.

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "src/codec/batch_compressor.h"
#include "src/codec/quantizer.h"
#include "src/core/cost_model.h"
#include "src/ghe/ghe_engine.h"

namespace {

using flb::codec::BatchCompressor;
using flb::codec::Quantizer;
using flb::codec::QuantizerConfig;

double GpuEncryptSeconds(int key_bits, int64_t count) {
  auto device = std::make_shared<flb::gpusim::Device>(
      flb::gpusim::DeviceSpec::Rtx3090(), nullptr);
  flb::ghe::GheEngine ghe(device);
  ghe.ModelPaillierEncrypt(key_bits, count).value();
  return device->stats().kernel_seconds + device->stats().transfer_seconds;
}

}  // namespace

int main() {
  using namespace flb::bench;
  flb::core::CpuCostModel cpu;

  PrintHeader("Eq. 10 — GPU-HE acceleration ratio (encrypt batches)");
  std::printf("%5s %10s %14s %14s %10s\n", "key", "batch", "t_cpu (s)",
              "t_gpu (s)", "AC_ghe");
  for (int key : kKeySizes) {
    for (int64_t batch : {256LL, 4096LL, 65536LL}) {
      const uint64_t ops_per_encrypt = flb::ghe::PaillierEncryptLimbOps(key);
      const double t_cpu = cpu.SecondsFor(batch, ops_per_encrypt);
      const double t_gpu = GpuEncryptSeconds(key, batch);
      std::printf("%5d %10lld %14.4f %14.6f %9.0fx\n", key,
                  static_cast<long long>(batch), t_cpu, t_gpu, t_cpu / t_gpu);
    }
  }

  PrintHeader("Eqs. 11-13 — compression ratio and plaintext-space utilization");
  std::printf("%5s %4s %4s %8s %12s %12s %8s\n", "key", "r", "p", "slots",
              "ratio(4k)", "bound k/(r+b)", "PSU");
  for (int key : kKeySizes) {
    for (int participants : {2, 4, 64}) {
      QuantizerConfig qcfg;
      qcfg.r_bits = 30;
      qcfg.participants = participants;
      auto quantizer = Quantizer::Create(qcfg).value();
      auto bc = BatchCompressor::Create(quantizer, key).value();
      const size_t n = 4096;
      std::printf("%5d %4d %4d %8d %11.1fx %11.1fx %7.1f%%\n", key,
                  qcfg.r_bits, participants, bc.slots_per_plaintext(),
                  bc.CompressionRatio(n), bc.TheoreticalCompressionRatio(),
                  100.0 * bc.PlaintextSpaceUtilization(n));
    }
  }

  PrintHeader("Eq. 14 — composition: AC = AC_ghe * AC_bc vs end-to-end");
  for (int key : kKeySizes) {
    auto fate = MustRun(WorkloadFor(FlModelKind::kHomoLr,
                                    flb::fl::DatasetKind::kRcv1,
                                    EngineKind::kFate, key));
    auto no_bc = MustRun(WorkloadFor(FlModelKind::kHomoLr,
                                     flb::fl::DatasetKind::kRcv1,
                                     EngineKind::kFlBoosterNoBc, key));
    auto no_ghe = MustRun(WorkloadFor(FlModelKind::kHomoLr,
                                      flb::fl::DatasetKind::kRcv1,
                                      EngineKind::kFlBoosterNoGhe, key));
    auto full = MustRun(WorkloadFor(FlModelKind::kHomoLr,
                                    flb::fl::DatasetKind::kRcv1,
                                    EngineKind::kFlBooster, key));
    const double ac_ghe = fate.total_seconds / no_bc.total_seconds;
    const double ac_bc = fate.total_seconds / no_ghe.total_seconds;
    const double ac_measured = fate.total_seconds / full.total_seconds;
    std::printf(
        "key %4d: AC_ghe=%6.1fx  AC_bc=%6.1fx  product=%8.1fx  "
        "measured end-to-end=%8.1fx\n",
        key, ac_ghe, ac_bc, ac_ghe * ac_bc, ac_measured);
  }
  std::printf(
      "\n(The product over-predicts when a third component — model compute, "
      "per-message latency — becomes the residual bottleneck; the paper's "
      "Eq. 14 has the same caveat.)\n");
  return 0;
}
