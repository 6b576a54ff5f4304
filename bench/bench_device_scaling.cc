// Extension bench (future-work direction the paper gestures at with edge
// deployments, e.g. C2RM): how FLBooster's gains scale down from a
// datacenter GPU (RTX 3090) to an edge-class device, and what the analytic
// model (Eq. 10) predicts for each.

#include <cstdio>
#include <memory>

#include "src/core/cost_model.h"
#include "src/ghe/ghe_engine.h"
#include "src/gpusim/device.h"

namespace {

double EncryptSeconds(const flb::gpusim::DeviceSpec& spec, int key_bits,
                      int64_t batch) {
  auto device = std::make_shared<flb::gpusim::Device>(spec, nullptr);
  flb::ghe::GheEngine engine(device);
  engine.ModelPaillierEncrypt(key_bits, batch).value();
  return device->stats().kernel_seconds + device->stats().transfer_seconds;
}

}  // namespace

int main() {
  using namespace flb;
  core::CpuCostModel cpu;
  const auto rtx = gpusim::DeviceSpec::Rtx3090();
  const auto edge = gpusim::DeviceSpec::JetsonClass();

  std::printf("==== Device scaling — GPU-HE speedup vs CPU (Eq. 10) ====\n");
  std::printf("%5s %9s %14s %14s %14s %9s %9s\n", "key", "batch", "t_cpu (s)",
              "RTX3090 (s)", "edge GPU (s)", "AC_3090", "AC_edge");
  for (int key : {1024, 2048, 4096}) {
    for (int64_t batch : {1024LL, 16384LL}) {
      const uint64_t ops = ghe::PaillierEncryptLimbOps(key);
      const double t_cpu = cpu.SecondsFor(batch, ops);
      const double t_rtx = EncryptSeconds(rtx, key, batch);
      const double t_edge = EncryptSeconds(edge, key, batch);
      std::printf("%5d %9lld %14.3f %14.5f %14.5f %8.0fx %8.0fx\n", key,
                  static_cast<long long>(batch), t_cpu, t_rtx, t_edge,
                  t_cpu / t_rtx, t_cpu / t_edge);
    }
  }
  std::printf(
      "\nShape: the edge device keeps a substantial (but ~%0.0fx smaller) "
      "GPU-HE advantage — FLBooster's design is not datacenter-only.\n",
      (rtx.num_sms * rtx.cuda_cores_per_sm * rtx.core_clock_hz) /
          (edge.num_sms * edge.cuda_cores_per_sm * edge.core_clock_hz));
  return 0;
}
