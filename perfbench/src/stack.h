// The benchmark's workloads and the composed FL stack it times.
//
// RunStack builds the stack from outside, through the same public calls
// Platform::RunImpl makes — HeService::Create, fl::GenerateDataset,
// fl::HorizontalSplit / fl::VerticalSplit, then <Trainer>::Train — so each
// call can be timed on the wall clock and the counters the program exposes
// (op counts, network and device stats, the simulated clock) can be read at
// its boundaries. The Compare* checks keep that composition from drifting
// away from the product path.

#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "src/common/result.h"
#include "src/core/platform.h"
#include "src/gpusim/device.h"

namespace perfbench {

enum class Workload { kHomoLrReal, kHeteroSbtReal, kPaperGridModeled };

flb::Result<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);
bool IsReal(Workload workload);

// Host threads the benchmark gives every HE service: min(4, nproc).
int BenchHostThreads();

// The fixed panel of set-up seeds kSetupPanelBase .. kSetupPanelBase +
// kSetupPanel - 1. Key generation time depends heavily on the key seed (a
// prime search: 0.06-1.5 s at 2048 bits), so set-ups under the workload seed
// alone would compare different work from run to run; setup_s and
// crypto.keygen_s both set up the keys of this panel in every run.
constexpr int kSetupPanel = 7;
constexpr uint64_t kSetupPanelBase = 90001;

// `cell` with both of its seeds replaced by panel seed `k`.
flb::core::PlatformConfig PanelCell(const flb::core::PlatformConfig& cell,
                                    int k);

// One PlatformConfig per cell (1 for the real workloads, 10 for the grid).
// `seed` feeds both DatasetSpec::seed and PlatformConfig::seed.
std::vector<flb::core::PlatformConfig> WorkloadCells(Workload workload,
                                                     uint64_t seed);

// "homo_lr.flbooster", "hetero_sbt.fate", ...
std::string CellName(const flb::core::PlatformConfig& config);

// The HeServiceOptions and device Platform::RunImpl derives from a config.
flb::core::HeServiceOptions ServiceOptions(
    const flb::core::PlatformConfig& config);
std::shared_ptr<flb::gpusim::Device> MakeDevice(
    const flb::core::PlatformConfig& config, flb::SimClock* clock);

struct StackRun {
  flb::fl::TrainResult train;
  // Wall seconds of each set-up call and of Train itself.
  double create_s = 0;
  double dataset_s = 0;
  double split_s = 0;  // split plus trainer construction
  double train_s = 0;
  double cpu_s = 0;  // process user+sys CPU seconds inside Train
  flb::core::HeOpCounts ops;
  uint64_t net_bytes = 0;
  uint64_t net_messages = 0;
  flb::gpusim::DeviceStats device;
  std::map<flb::CostKind, double> sim_by_kind;
  double sim_total = 0;
  double sim_he = 0;
  double sim_comm = 0;
  double sim_other = 0;

  double setup_s() const { return create_s + dataset_s + split_s; }
  size_t epochs() const { return train.epochs.size(); }
  // RunReport::SecondsPerEpoch on the composed run.
  double sim_epoch_s() const {
    return epochs() == 0 ? 0.0 : sim_total / static_cast<double>(epochs());
  }
};

// Composes and trains one cell. With a recorder, each call gets a span under
// `parent` carrying the counters read at its end. With train = false it
// stops after the set-up calls (set-up timing only).
flb::Result<StackRun> RunStack(const flb::core::PlatformConfig& config,
                               SpanRecorder* spans, int parent,
                               bool train = true);

// Each returns "" when the two sides agree bit for bit, else what differs.
//   Product-path parity: per-epoch loss, the total/HE/comm/other simulated
//   seconds, network bytes and messages, HE op counts.
std::string CompareWithReport(const StackRun& run,
                              const flb::core::RunReport& report);
//   Real ≡ modeled: per-epoch loss and simulated seconds per epoch (op
//   counts deliberately not compared; see the README).
std::string CompareRealModeled(const StackRun& real, const StackRun& modeled);
//   Same-seed determinism between two repetitions of one cell.
std::string CompareRepetition(const StackRun& first, const StackRun& again);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
