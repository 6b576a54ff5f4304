// FLBoosterPlatform: the top-level entry point (paper Fig. 3).
//
// One call wires together a dataset, a partitioning, an FL model, an engine
// configuration (FATE / HAFLO / FLBooster / ablations), the simulated GPU,
// the simulated network, and the simulated clock — then trains and returns
// the full measurement record the paper's tables are built from.

#ifndef FLB_CORE_PLATFORM_H_
#define FLB_CORE_PLATFORM_H_

#include <string>

#include "src/common/deadline.h"
#include "src/common/result.h"
#include "src/core/engine_config.h"
#include "src/core/he_service.h"
#include "src/fl/dataset.h"
#include "src/fl/fl_types.h"
#include "src/fl/hetero_nn.h"
#include "src/fl/hetero_sbt.h"
#include "src/fl/homo_nn.h"
#include "src/net/circuit_breaker.h"
#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/reliable_channel.h"

namespace flb::core {

enum class FlModelKind : int {
  kHomoLr = 0,
  kHeteroLr = 1,
  kHeteroSbt = 2,
  kHeteroNn = 3,
  // Extension beyond the paper's four evaluated models: FedAvg with
  // encrypted model deltas (FATE's Homo NN workload class).
  kHomoNn = 4,
};

std::string ModelName(FlModelKind kind);

struct PlatformConfig {
  EngineKind engine = EngineKind::kFlBooster;
  FlModelKind model = FlModelKind::kHomoLr;
  fl::DatasetSpec dataset;
  int num_parties = 4;  // Hetero NN always uses 2 (guest + host)
  int key_bits = 1024;
  int r_bits = 30;
  double alpha = 1.0;
  // Fixed-point encoding for per-value legs and the cipher-compression slot
  // width (0 = auto). SBT histograms use narrower slots (their bucket sums
  // are small), which raises the compression ratio.
  int frac_bits = 24;
  int fp_compress_slot_bits = 0;
  bool modeled = true;  // plaintext-shadow HE (epoch benches); false = real
  fl::TrainConfig train;
  fl::SbtParams sbt;
  fl::NnParams nn;
  fl::HomoNnParams homo_nn;
  net::LinkSpec link = net::LinkSpec::GigabitEthernet();
  uint64_t seed = 20230401;
  // Device streams for chunked HE batch overlap. 0 = engine default
  // (4 for the FLBooster engines, 1 for the baselines).
  int gpu_streams = 0;
  // Host worker threads for element-parallel HE batch bodies. 0 = the
  // process-global pool (FLB_HOST_THREADS, then hardware_concurrency).
  // Results are bit-identical for any value; only wall-clock changes.
  int host_threads = 0;
  // Fault plan spec (net/fault.h grammar). Empty = consult FLB_FAULT_PLAN;
  // both empty = healthy run with the legacy raw transport. A non-empty
  // plan attaches a FaultInjector and routes all traffic through a
  // ReliableChannel (framing + ack/retransmit).
  std::string fault_plan;
  net::ReliableOptions reliable;
  // Per-link circuit breaker over the reliable channel (active only under
  // a fault plan, like the channel itself).
  net::BreakerOptions breaker;
  // Run-wide simulated-seconds budget. 0 = unbounded. When set, a
  // common::Deadline is threaded through the network, the HE service, and
  // the trainers; expiry surfaces as typed kDeadlineExceeded instead of a
  // run that drags on past the budget.
  double run_deadline_sec = 0;
  // Live-inspection HTTP server (obs::ObsServer). 0 = start only when
  // FLB_OBS_PORT is set in the environment; > 0 forces that port. The
  // server starts once per process and never changes run results.
  int obs_port = 0;

  // ---- Performance knobs the auto-tuner searches (src/core/tuner.h) ------
  // Each is also directly settable for a hand-tuned run; the tuner only
  // overwrites them on its effective copy of the config.
  //
  // Chunks per stream for the GHE chunked batch schedule. 0 = engine
  // default (1 chunk per stream).
  int ghe_chunks_per_stream = 0;
  // Batch-compression override: -1 = engine trait, 0 = force off,
  // 1 = force on.
  int use_bc = -1;
  // Dispatch the fixed-width Montgomery kernels (bit-identical results
  // either way; real-crypto wall-clock only).
  bool use_fixed_width_kernels = true;

  // ---- Auto-tuning -------------------------------------------------------
  // When true — or when FLB_AUTO_TUNE is set truthy in the environment —
  // Platform::Run first resolves the knobs above through tune::AutoTuner:
  // analytic (Eq. 10) warm start, a few simulated warm-up probes,
  // deterministic successive halving, and a per-workload TuningCache so
  // repeated runs skip the search. Off by default: the untuned path is
  // byte-identical to a build without the tuner.
  bool auto_tune = false;
  // Disk path for the TuningCache ("" = FLB_TUNER_CACHE environment
  // variable; both empty = in-memory cache only, scoped to the process).
  std::string tuner_cache;
};

struct RunReport {
  fl::TrainResult train;
  // Whole-run decomposition (simulated seconds).
  double total_seconds = 0;
  double he_seconds = 0;
  double comm_seconds = 0;
  double other_seconds = 0;
  uint64_t comm_bytes = 0;
  uint64_t comm_messages = 0;
  HeOpCounts he_ops;
  // Values through HE per HE-second (Table IV's instances/second).
  double he_throughput = 0;
  // Work-weighted SM utilization (Fig. 6; 0 for CPU engines).
  double sm_utilization = 0;
  // Pre-encryption packing ratio actually achieved: values encrypted per
  // ciphertext produced (Fig. 7 input).
  double pack_ratio = 1.0;
  // Chaos-run accounting (all zero without a fault plan).
  fl::RobustnessCounters robustness;
  net::FaultStats fault_stats;
  net::ChannelStats channel_stats;
  net::BreakerStats breaker_stats;

  double SecondsPerEpoch() const {
    return train.epochs.empty() ? 0.0
                                : total_seconds / train.epochs.size();
  }
};

// The HeServiceOptions a run with `config` builds its HE service from
// (Hetero NN always runs two parties). Platform runs and the auto-tuner's
// pricing both go through it; ResolveEngine then turns it into the engine.
HeServiceOptions HeServiceOptionsFor(const PlatformConfig& config);

class Platform {
 public:
  // Builds the whole stack, trains, and reports. Deterministic for a fixed
  // config. With auto_tune (or FLB_AUTO_TUNE) set, resolves the performance
  // knobs through tune::AutoTuner first, then runs with the chosen config.
  static Result<RunReport> Run(const PlatformConfig& config);

  // Tuner probe entry point: one measurement run with the knobs exactly as
  // given. Skips every global side effect Run performs — trace reset,
  // RunStatus lifecycle, per-run gauges, FLB_FAULT_PLAN/FLB_AUTO_TUNE env
  // pickup — so warm-up probes never perturb the observable state of the
  // real run. Charged accounting is identical to Run with the same config.
  static Result<RunReport> RunForTuning(const PlatformConfig& config);

 private:
  static Result<RunReport> RunImpl(const PlatformConfig& config, bool probe);
};

}  // namespace flb::core

#endif  // FLB_CORE_PLATFORM_H_
