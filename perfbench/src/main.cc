// flb_perfbench: the end-to-end FL training benchmark.
//
//   flb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <path>]
//
// --trace 0 repeats the workload's cells until --seconds have passed and
// reports the end-to-end metrics (medians over the repetitions). --trace 1
// runs the cells once untraced and once traced, then probes every layer, and
// reports the per-layer metrics; its spans go to --spans. Both modes run the
// correctness checks. The last line of stdout is the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// See perfbench/README.md for the metric table.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/probes.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stack.h"
#include "perfbench/src/util.h"
#include "src/obs/host_profiler.h"
#include "src/obs/json_util.h"
#include "src/obs/metrics.h"

namespace perfbench {
namespace {

using flb::core::PlatformConfig;

// A seed kept out of all tuning of the benchmark; claims made with it must
// also hold on this one.
constexpr uint64_t kHeldOutSeed = 777001;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || kv.count("workload") == 0 || kv.count("seed") == 0) {
    return false;
  }
  for (const auto& [key, value] : kv) {
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "spans") {
      args->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->seconds > 0;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

bool Optimized() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string HeaderJson(const Args& args,
                       const std::vector<PlatformConfig>& cells) {
  std::set<int> keys;
  for (const auto& c : cells) keys.insert(c.key_bits);
  std::ostringstream key_list;
  for (int k : keys) key_list << (key_list.tellp() > 0 ? ", " : "") << k;
  std::ostringstream out;
  out << "{\"workload\": " << flb::obs::JsonQuote(args.workload)
      << ", \"seed\": " << args.seed << ", \"heldout_seed\": " << kHeldOutSeed
      << ", \"seconds\": " << Num(args.seconds)
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"host_threads\": " << BenchHostThreads()
      << ", \"compiler\": " << flb::obs::JsonQuote(kCompiler)
      << ", \"build_type\": " << flb::obs::JsonQuote(PERFBENCH_BUILD_TYPE)
      << ", \"optimized\": " << (Optimized() ? "true" : "false")
      << ", \"key_bits\": [" << key_list.str() << "]"
      << ", \"cells\": " << cells.size() << "}";
  return out.str();
}

// Sums of the per-cell results a workload reports.
struct CellTotals {
  double sim_epoch_s = 0;
  double wire_mb_per_epoch = 0;
  double loss_sum = 0;
  size_t cells = 0;

  void Add(const StackRun& r) {
    sim_epoch_s += r.sim_epoch_s();
    wire_mb_per_epoch +=
        r.epochs() == 0 ? 0.0
                        : static_cast<double>(r.net_bytes) / 1e6 / r.epochs();
    loss_sum += r.train.final_loss;
    ++cells;
  }
  double final_loss() const { return cells == 0 ? 0.0 : loss_sum / cells; }
};

// "" when the composed run's seven sim kinds, grouped the way RunReport
// groups them, match Platform::Run's report to floating-point rounding:
// HE (cpu_he + gpu_kernel + pcie), comm (network), other (the rest), and
// all of them together against SecondsPerEpoch() x epochs.
std::string CompareSimKinds(const StackRun& run,
                            const flb::core::RunReport& report) {
  double he = 0, comm = 0, other = 0;
  for (const auto& [kind, seconds] : run.sim_by_kind) {
    switch (kind) {
      case flb::CostKind::kCpuHe:
      case flb::CostKind::kGpuKernel:
      case flb::CostKind::kPcieTransfer:
        he += seconds;
        break;
      case flb::CostKind::kNetwork:
        comm += seconds;
        break;
      default:
        other += seconds;
    }
  }
  const double total =
      report.SecondsPerEpoch() * static_cast<double>(report.train.epochs.size());
  std::ostringstream diff;
  const auto near = [&](const char* name, double kinds, double want) {
    if (std::fabs(kinds - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
      diff << (diff.tellp() > 0 ? "; " : "") << name << ": " << Num(kinds)
           << " != " << Num(want);
    }
  };
  near("he", he, report.he_seconds);
  near("comm", comm, report.comm_seconds);
  near("other", other, report.other_seconds);
  near("sum", he + comm + other, total);
  return diff.str();
}

// The correctness checks shared by both modes, each one operation:
// product-path parity against Platform::Run, the sim kinds against that
// run's report, and real ≡ modeled (real workloads).
// Returns real minus modeled encrypts, summed over the real cells.
double RunChecks(Workload workload, const std::vector<PlatformConfig>& cells,
                 const std::vector<StackRun>& runs, SpanRecorder* spans,
                 int parent, Ledger* ledger) {
  double encrypts_modeled_delta = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const std::string cell = CellName(cells[i]);
    {
      ScopedSpan span(spans, "check.platform_parity " + cell, parent);
      auto report = flb::core::Platform::Run(cells[i]);
      const std::string diff =
          report.ok() ? CompareWithReport(runs[i], report.value())
                      : report.status().ToString();
      ledger->Check(diff.empty(), "platform parity " + cell + ": " + diff);
      const std::string kinds = report.ok()
                                    ? CompareSimKinds(runs[i], report.value())
                                    : report.status().ToString();
      ledger->Check(kinds.empty(), "sim kinds " + cell + ": " + kinds);
    }
    if (IsReal(workload)) {
      ScopedSpan span(spans, "check.real_vs_modeled " + cell, parent);
      PlatformConfig mcfg = cells[i];
      mcfg.modeled = true;
      auto m = RunStack(mcfg, spans, span.id());
      const std::string diff = m.ok() ? CompareRealModeled(runs[i], m.value())
                                      : m.status().ToString();
      ledger->Check(diff.empty(), "real vs modeled " + cell + ": " + diff);
      if (m.ok()) {
        encrypts_modeled_delta += static_cast<double>(runs[i].ops.encrypts) -
                                  static_cast<double>(m->ops.encrypts);
      }
    }
  }
  return encrypts_modeled_delta;
}

// Trains every cell once, one operation each; false after the first
// failure (the remaining cells are skipped).
bool TrainCells(const std::vector<PlatformConfig>& cells, SpanRecorder* spans,
                int parent, const std::string& label, Ledger* ledger,
                std::vector<StackRun>* runs) {
  runs->clear();
  for (const PlatformConfig& cell : cells) {
    auto run = RunStack(cell, spans, parent);
    ledger->Check(run.ok(), label + " " + CellName(cell) + ": " +
                                (run.ok() ? "" : run.status().ToString()));
    if (!run.ok()) return false;
    runs->push_back(std::move(run).value());
  }
  return true;
}

// Sets up every cell under panel seed `k` (no training), one operation per
// cell; returns the summed set-up seconds.
double PanelSetup(const std::vector<PlatformConfig>& cells, int k,
                  Ledger* ledger) {
  double seconds = 0;
  for (const PlatformConfig& cell : cells) {
    const PlatformConfig panel = PanelCell(cell, k);
    auto run = RunStack(panel, nullptr, -1, /*train=*/false);
    ledger->Check(run.ok(), "set-up " + CellName(panel) + " panel seed " +
                                std::to_string(panel.seed));
    if (run.ok()) seconds += run->setup_s();
  }
  return seconds;
}

// --trace 0: repeat the cells for the measurement window; report medians.
// Each repetition trains the cells once, then sets them up once under every
// panel seed, so setup_s is sampled across the whole window like train_s:
// setup_s is the mean over the panel of each seed's median set-up.
void RunUntraced(Workload workload, const Args& args,
                 const std::vector<PlatformConfig>& cells, MetricSet* out,
                 Ledger* ledger) {
  std::vector<double> train, cpu;
  std::vector<std::vector<double>> setups(kSetupPanel);
  std::vector<StackRun> first, again;
  double peak_rss_mb = 0;  // after the first repetition, before any check
  const double start = WallNow();
  do {
    std::vector<StackRun>& runs = first.empty() ? first : again;
    if (!TrainCells(cells, nullptr, -1, "train", ledger, &runs)) return;
    double rep_train = 0, rep_cpu = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
      rep_train += runs[i].train_s;
      rep_cpu += runs[i].cpu_s;
      if (&runs == &again) {
        const std::string diff = CompareRepetition(first[i], again[i]);
        ledger->Check(diff.empty(), "repetition differs " +
                                        CellName(cells[i]) + ": " + diff);
      }
    }
    if (train.empty()) peak_rss_mb = PeakRssMb();
    train.push_back(rep_train);
    cpu.push_back(rep_cpu);
    double rep_setup = 0;
    for (int k = 0; k < kSetupPanel; ++k) {
      setups[k].push_back(PanelSetup(cells, k, ledger));
      rep_setup += setups[k].back();
    }
    std::fprintf(stderr, "rep %zu: train_s %.4f cpu_s %.4f setup_s %.4f\n",
                 train.size(), rep_train, rep_cpu, rep_setup / kSetupPanel);
  } while (WallNow() - start < args.seconds);

  RunChecks(workload, cells, first, nullptr, -1, ledger);

  double setup_s = 0;
  for (const std::vector<double>& seed_setups : setups) {
    setup_s += Median(seed_setups) / kSetupPanel;
  }
  CellTotals totals;
  for (const StackRun& r : first) totals.Add(r);
  out->push_back({"setup_s", setup_s, "s"});
  out->push_back({"train_s", Median(train), "s"});
  out->push_back({"cpu_s", Median(cpu), "s"});
  out->push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  out->push_back({"sim_epoch_s", totals.sim_epoch_s, "sim_s"});
  out->push_back({"wire_mb_per_epoch", totals.wire_mb_per_epoch, "MB"});
  out->push_back({"final_loss", totals.final_loss(), "nats"});
}

// Sum of one registry metric over all its labels.
double RegistrySum(const std::vector<flb::obs::MetricValue>& snapshot,
                   const std::string& name) {
  double sum = 0;
  for (const auto& m : snapshot) {
    if (m.name == name) sum += m.value;
  }
  return sum;
}

// --trace 1: one untraced and one traced pass over the cells, the checks,
// then the layer probes.
void RunTraced(Workload workload, const Args& args,
               const std::vector<PlatformConfig>& cells,
               SpanRecorder* spans, MetricSet* out, Ledger* ledger) {
  const int root = spans->Begin("run " + args.workload, -1);

  std::vector<StackRun> untraced, runs;
  if (!TrainCells(cells, nullptr, -1, "untraced train", ledger, &untraced)) {
    return;
  }
  double untraced_train = 0;
  for (const StackRun& r : untraced) untraced_train += r.train_s;

  auto& profiler = flb::obs::HostProfiler::Global();
  auto& registry = flb::obs::MetricsRegistry::Global();
  profiler.Enable();
  const auto before = registry.Collect();
  bool trained = false;
  {
    ScopedSpan span(spans, "fl.train_pass", root);
    trained =
        TrainCells(cells, spans, span.id(), "traced train", ledger, &runs);
  }
  const auto after = registry.Collect();
  profiler.Disable();
  if (!trained) return;

  const auto delta = [&](const std::string& name) {
    return RegistrySum(after, name) - RegistrySum(before, name);
  };
  const double busy = delta("flb.host.busy_ms") * 1e-3;
  const double idle = delta("flb.host.idle_ms") * 1e-3;
  out->push_back({"common.pool_busy_s", busy, "s"});
  out->push_back({"common.pool_idle_s", idle, "s"});
  out->push_back({"common.pool_utilization",
                  busy + idle > 0 ? busy / (busy + idle) : 0.0, "ratio"});
  out->push_back({"common.pool_steals", delta("flb.host.profiled_steals"),
                  "count"});
  out->push_back({"common.lock_wait_s", delta("flb.host.lock_wait_seconds"),
                  "s"});

  double encrypts_modeled_delta = 0;
  {
    ScopedSpan span(spans, "checks", root);
    encrypts_modeled_delta =
        RunChecks(workload, cells, runs, spans, span.id(), ledger);
  }

  double traced_train = 0;
  flb::core::HeOpCounts ops;
  uint64_t net_bytes = 0, net_messages = 0;
  flb::gpusim::DeviceStats dev;
  std::map<flb::CostKind, double> sim;
  for (const StackRun& r : runs) {
    traced_train += r.train_s;
    ops.encrypts += r.ops.encrypts;
    ops.decrypts += r.ops.decrypts;
    ops.hom_adds += r.ops.hom_adds;
    ops.scalar_muls += r.ops.scalar_muls;
    ops.values_encrypted += r.ops.values_encrypted;
    net_bytes += r.net_bytes;
    net_messages += r.net_messages;
    dev.kernels_launched += r.device.kernels_launched;
    dev.bytes_h2d += r.device.bytes_h2d;
    dev.overlap_saved_seconds += r.device.overlap_saved_seconds;
    dev.util_sum += r.device.util_sum;
    dev.util_weight += r.device.util_weight;
    for (const auto& [kind, seconds] : r.sim_by_kind) sim[kind] += seconds;
  }

  ProbeKernels(cells.front(), spans, root, out, ledger);
  // The core replay runs on the workload's own service options; for the
  // grid that is its FLBooster Homo LR cell.
  const size_t core_cell = cells.size() > 1 ? 1 : 0;
  ProbeCore(cells[core_cell], runs[core_cell], spans, root, out, ledger);

  out->push_back({"core.encrypts", static_cast<double>(ops.encrypts), "count"});
  out->push_back({"core.decrypts", static_cast<double>(ops.decrypts), "count"});
  out->push_back({"core.hom_adds", static_cast<double>(ops.hom_adds), "count"});
  out->push_back({"core.scalar_muls", static_cast<double>(ops.scalar_muls),
                  "count"});
  const double pack_ratio =
      ops.encrypts == 0 ? 0.0
                        : static_cast<double>(ops.values_encrypted) /
                              static_cast<double>(ops.encrypts);
  out->push_back({"core.pack_ratio", pack_ratio, "values/ct"});
  out->push_back({"core.encrypts_modeled_delta", encrypts_modeled_delta,
                  "count"});

  out->push_back({"net.bytes", static_cast<double>(net_bytes), "B"});
  out->push_back({"net.messages", static_cast<double>(net_messages), "count"});

  out->push_back({"gpusim.kernels", static_cast<double>(dev.kernels_launched),
                  "count"});
  out->push_back({"gpusim.bytes_h2d", static_cast<double>(dev.bytes_h2d), "B"});
  out->push_back({"gpusim.sm_utilization", dev.MeanSmUtilization(), "ratio"});
  out->push_back({"gpusim.overlap_saved_sim_s", dev.overlap_saved_seconds,
                  "sim_s"});

  static const std::pair<flb::CostKind, const char*> kKinds[] = {
      {flb::CostKind::kCpuHe, "sim.cpu_he_s"},
      {flb::CostKind::kGpuKernel, "sim.gpu_kernel_s"},
      {flb::CostKind::kPcieTransfer, "sim.pcie_s"},
      {flb::CostKind::kNetwork, "sim.network_s"},
      {flb::CostKind::kEncoding, "sim.encoding_s"},
      {flb::CostKind::kModelCompute, "sim.model_compute_s"},
      {flb::CostKind::kOther, "sim.other_s"}};
  for (const auto& [kind, name] : kKinds) {
    out->push_back({name, sim[kind], "sim_s"});
  }

  // fl: per-cell train time over the paper grid. The grid workload's traced
  // pass gives it directly; the real workloads run the grid once here as
  // the fl-layer probe.
  std::vector<StackRun> grid_runs;
  const std::vector<PlatformConfig> grid_cells =
      WorkloadCells(Workload::kPaperGridModeled, args.seed);
  if (workload == Workload::kPaperGridModeled) {
    grid_runs = runs;
  } else {
    ScopedSpan span(spans, "fl.grid_probe", root);
    if (!TrainCells(grid_cells, spans, span.id(), "fl grid probe", ledger,
                    &grid_runs)) {
      return;
    }
  }
  for (size_t i = 0; i < grid_cells.size(); ++i) {
    out->push_back({"fl." + CellName(grid_cells[i]) + ".train_s",
                    grid_runs[i].train_s, "s"});
  }
  double dataset_s = 0;
  for (const StackRun& r : runs) dataset_s += r.dataset_s;
  out->push_back({"fl.dataset_s", dataset_s, "s"});
  out->push_back({"trace.overhead_s", traced_train - untraced_train, "s"});

  spans->End(root);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: flb_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  auto workload = ParseWorkload(args.workload);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  const std::vector<PlatformConfig> cells =
      WorkloadCells(workload.value(), args.seed);
  const std::string header = HeaderJson(args, cells);
  std::printf("{\"header\": %s}\n", header.c_str());
  if (!Optimized()) {
    std::printf("WARNING: non-optimised build (%s); timings are not "
                "comparable with optimised runs\n",
                PERFBENCH_BUILD_TYPE);
  }
  std::fflush(stdout);

  MetricSet metrics;
  Ledger ledger;
  if (args.trace) {
    SpanRecorder spans(args.workload + "-seed" + std::to_string(args.seed));
    RunTraced(workload.value(), args, cells, &spans, &metrics, &ledger);
    if (!args.spans_path.empty() && !spans.WriteJson(args.spans_path, header)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
      return 1;
    }
  } else {
    RunUntraced(workload.value(), args, cells, &metrics, &ledger);
  }

  for (const std::string& failure : ledger.failures()) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  std::ostringstream out;
  out << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted()
      << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    out << (first ? "" : ", ") << flb::obs::JsonQuote(m.name)
        << ": {\"value\": " << Num(m.value)
        << ", \"unit\": " << flb::obs::JsonQuote(m.unit) << "}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
