#include "perfbench/src/stack.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "perfbench/src/util.h"
#include "src/fl/hetero_lr.h"
#include "src/fl/homo_lr.h"
#include "src/fl/partition.h"
#include "src/gpusim/device_spec.h"

namespace perfbench {

using flb::core::EngineKind;
using flb::core::FlModelKind;
using flb::core::PlatformConfig;

flb::Result<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kHomoLrReal, Workload::kHeteroSbtReal,
                     Workload::kPaperGridModeled}) {
    if (name == WorkloadName(w)) return w;
  }
  return flb::Status::InvalidArgument("unknown workload '" + name + "'");
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kHomoLrReal:
      return "homo_lr_real";
    case Workload::kHeteroSbtReal:
      return "hetero_sbt_real";
    case Workload::kPaperGridModeled:
      return "paper_grid_modeled";
  }
  return "unknown";
}

bool IsReal(Workload workload) {
  return workload != Workload::kPaperGridModeled;
}

int BenchHostThreads() {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(nproc, 1, 4);
}

std::vector<PlatformConfig> WorkloadCells(Workload workload, uint64_t seed) {
  PlatformConfig base;
  base.engine = EngineKind::kFlBooster;
  base.num_parties = 4;
  base.dataset = flb::fl::DefaultScaleSpec(flb::fl::DatasetKind::kSynthetic);
  base.dataset.seed = seed;
  base.seed = seed;
  base.host_threads = BenchHostThreads();
  base.train.max_epochs = 1;

  std::vector<PlatformConfig> cells;
  switch (workload) {
    case Workload::kHomoLrReal: {
      PlatformConfig c = base;
      c.model = FlModelKind::kHomoLr;
      c.key_bits = 2048;
      c.modeled = false;
      c.train.max_epochs = 2;
      c.train.batch_size = 64;
      cells.push_back(c);
      break;
    }
    case Workload::kHeteroSbtReal: {
      PlatformConfig c = base;
      c.model = FlModelKind::kHeteroSbt;
      c.key_bits = 1024;
      c.modeled = false;
      c.dataset.rows = 512;
      c.dataset.cols = 32;
      c.dataset.nnz_per_row = 32;
      cells.push_back(c);
      break;
    }
    case Workload::kPaperGridModeled:
      for (FlModelKind model :
           {FlModelKind::kHomoLr, FlModelKind::kHeteroLr,
            FlModelKind::kHeteroSbt, FlModelKind::kHeteroNn,
            FlModelKind::kHomoNn}) {
        for (EngineKind engine : {EngineKind::kFate, EngineKind::kFlBooster}) {
          PlatformConfig c = base;
          c.model = model;
          c.engine = engine;
          c.key_bits = 1024;
          c.modeled = true;
          cells.push_back(c);
        }
      }
      break;
  }
  return cells;
}

PlatformConfig PanelCell(const PlatformConfig& cell, int k) {
  PlatformConfig panel = cell;
  panel.seed = kSetupPanelBase + static_cast<uint64_t>(k);
  panel.dataset.seed = panel.seed;
  return panel;
}

std::string CellName(const PlatformConfig& config) {
  static const char* const kModels[] = {"homo_lr", "hetero_lr", "hetero_sbt",
                                        "hetero_nn", "homo_nn"};
  const std::string engine =
      config.engine == EngineKind::kFate ? "fate" : "flbooster";
  return std::string(kModels[static_cast<int>(config.model)]) + "." + engine;
}

namespace {

int Parties(const PlatformConfig& config) {
  return config.model == FlModelKind::kHeteroNn ? 2 : config.num_parties;
}

}  // namespace

flb::core::HeServiceOptions ServiceOptions(const PlatformConfig& config) {
  flb::core::HeServiceOptions he_opts;
  he_opts.engine = config.engine;
  he_opts.key_bits = config.key_bits;
  he_opts.r_bits = config.r_bits;
  he_opts.participants = Parties(config);
  he_opts.alpha = config.alpha;
  he_opts.frac_bits = config.frac_bits;
  he_opts.fp_compress_slot_bits = config.fp_compress_slot_bits;
  he_opts.modeled = config.modeled;
  he_opts.seed = config.seed;
  he_opts.gpu_streams = config.gpu_streams;
  he_opts.ghe_chunks_per_stream = config.ghe_chunks_per_stream;
  he_opts.use_bc = config.use_bc;
  he_opts.host_threads = config.host_threads;
  he_opts.use_fixed_width_kernels = config.use_fixed_width_kernels;
  return he_opts;
}

std::shared_ptr<flb::gpusim::Device> MakeDevice(const PlatformConfig& config,
                                                flb::SimClock* clock) {
  const flb::core::EngineTraits traits = flb::core::TraitsFor(config.engine);
  if (!traits.gpu_he) return nullptr;
  return std::make_shared<flb::gpusim::Device>(
      flb::gpusim::DeviceSpec::Rtx3090(), clock, traits.branch_combining);
}

namespace {

// Times one call on the wall clock into *seconds.
template <typename Fn>
auto Timed(double* seconds, Fn&& fn) {
  const double start = WallNow();
  auto result = fn();
  *seconds = WallNow() - start;
  return result;
}

// Builds the trainer for `config.model` from the dataset (the split and the
// constructor are timed into split_s), then times Train() unless
// `run_train` is false.
flb::Result<flb::fl::TrainResult> SplitAndTrain(
    const PlatformConfig& config, const flb::fl::Dataset& data,
    const flb::fl::FlSession& session, int parties, bool run_train,
    SpanRecorder* spans, int parent, StackRun* run) {
  namespace fl = flb::fl;
  std::optional<ScopedSpan> split_span(std::in_place, spans, "fl.Split",
                                       parent);
  const double split_start = WallNow();
  const auto train = [&](auto& trainer) -> flb::Result<fl::TrainResult> {
    run->split_s = WallNow() - split_start;
    split_span.reset();
    if (!run_train) return fl::TrainResult{};
    ScopedSpan span(spans, "fl.Train", parent);
    const double cpu_start = CpuNow();
    const double train_start = WallNow();
    auto result = trainer.Train();
    run->train_s = WallNow() - train_start;
    run->cpu_s = CpuNow() - cpu_start;
    span.Counter("cpu_s", run->cpu_s);
    const flb::core::HeOpCounts ops = session.he->op_counts();
    span.Counter("core.encrypts", static_cast<double>(ops.encrypts));
    span.Counter("core.decrypts", static_cast<double>(ops.decrypts));
    span.Counter("core.hom_adds", static_cast<double>(ops.hom_adds));
    span.Counter("core.scalar_muls", static_cast<double>(ops.scalar_muls));
    span.Counter("net.bytes",
                 static_cast<double>(session.network->stats().bytes));
    span.Counter("net.messages",
                 static_cast<double>(session.network->stats().messages));
    span.Counter("sim.total_s", session.clock->Now());
    return result;
  };
  switch (config.model) {
    case FlModelKind::kHomoLr: {
      FLB_ASSIGN_OR_RETURN(auto shards, fl::HorizontalSplit(data, parties));
      fl::HomoLrTrainer trainer(std::move(shards), session, config.train);
      return train(trainer);
    }
    case FlModelKind::kHeteroLr: {
      FLB_ASSIGN_OR_RETURN(auto part, fl::VerticalSplit(data, parties));
      fl::HeteroLrTrainer trainer(std::move(part), session, config.train);
      return train(trainer);
    }
    case FlModelKind::kHeteroSbt: {
      FLB_ASSIGN_OR_RETURN(auto part, fl::VerticalSplit(data, parties));
      fl::HeteroSbtTrainer trainer(std::move(part), session, config.train,
                                   config.sbt);
      return train(trainer);
    }
    case FlModelKind::kHeteroNn: {
      FLB_ASSIGN_OR_RETURN(auto part, fl::VerticalSplit(data, 2));
      fl::HeteroNnTrainer trainer(std::move(part), session, config.train,
                                  config.nn);
      return train(trainer);
    }
    case FlModelKind::kHomoNn: {
      FLB_ASSIGN_OR_RETURN(auto shards, fl::HorizontalSplit(data, parties));
      fl::HomoNnTrainer trainer(std::move(shards), session, config.train,
                                config.homo_nn);
      return train(trainer);
    }
  }
  return flb::Status::InvalidArgument("unknown model");
}

}  // namespace

flb::Result<StackRun> RunStack(const PlatformConfig& config,
                               SpanRecorder* spans, int parent, bool train) {
  const int parties = Parties(config);
  StackRun run;
  ScopedSpan cell(spans, "cell " + CellName(config), parent);

  flb::SimClock clock;
  std::shared_ptr<flb::gpusim::Device> device = MakeDevice(config, &clock);
  flb::net::Network network(config.link, &clock);
  const flb::core::HeServiceOptions he_opts = ServiceOptions(config);

  std::unique_ptr<flb::core::HeService> he;
  {
    ScopedSpan span(spans, "core.HeService::Create", cell.id());
    FLB_ASSIGN_OR_RETURN(he, Timed(&run.create_s, [&] {
                           return flb::core::HeService::Create(
                               he_opts, &clock, device);
                         }));
    span.Counter("key_bits", config.key_bits);
  }
  flb::fl::Dataset dataset;
  {
    ScopedSpan span(spans, "fl.GenerateDataset", cell.id());
    FLB_ASSIGN_OR_RETURN(dataset, Timed(&run.dataset_s, [&] {
                           return flb::fl::GenerateDataset(config.dataset);
                         }));
    span.Counter("rows", static_cast<double>(dataset.rows()));
    span.Counter("cols", static_cast<double>(dataset.cols()));
  }

  flb::fl::FlSession session;
  session.he = he.get();
  session.network = &network;
  session.clock = &clock;
  FLB_ASSIGN_OR_RETURN(run.train,
                       SplitAndTrain(config, dataset, session, parties, train,
                                     spans, cell.id(), &run));

  run.ops = he->op_counts();
  run.net_bytes = network.stats().bytes;
  run.net_messages = network.stats().messages;
  if (device != nullptr) run.device = device->stats();
  run.sim_by_kind = clock.breakdown();
  run.sim_total = clock.Now();
  run.sim_he = clock.HeSeconds();
  run.sim_comm = clock.CommSeconds();
  run.sim_other = clock.OtherSeconds();

  return run;
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Accumulates "name: a != b" for every differing field.
class Diff {
 public:
  void Double(const std::string& name, double a, double b) {
    if (!SameBits(a, b)) Add(name, Num(a), Num(b));
  }
  void Count(const std::string& name, uint64_t a, uint64_t b) {
    if (a != b) Add(name, std::to_string(a), std::to_string(b));
  }
  void Losses(const flb::fl::TrainResult& a, const flb::fl::TrainResult& b) {
    Count("epochs", a.epochs.size(), b.epochs.size());
    const size_t n = std::min(a.epochs.size(), b.epochs.size());
    for (size_t e = 0; e < n; ++e) {
      Double("loss[" + std::to_string(e) + "]", a.epochs[e].loss,
             b.epochs[e].loss);
    }
  }
  void Ops(const flb::core::HeOpCounts& a, const flb::core::HeOpCounts& b) {
    Count("encrypts", a.encrypts, b.encrypts);
    Count("decrypts", a.decrypts, b.decrypts);
    Count("hom_adds", a.hom_adds, b.hom_adds);
    Count("scalar_muls", a.scalar_muls, b.scalar_muls);
    Count("values_encrypted", a.values_encrypted, b.values_encrypted);
    Count("values_decrypted", a.values_decrypted, b.values_decrypted);
  }
  std::string str() const { return out_.str(); }

 private:
  void Add(const std::string& name, const std::string& a,
           const std::string& b) {
    out_ << (out_.tellp() > 0 ? "; " : "") << name << ": " << a
         << " != " << b;
  }
  std::ostringstream out_;
};

}  // namespace

std::string CompareWithReport(const StackRun& run,
                              const flb::core::RunReport& report) {
  Diff diff;
  diff.Losses(run.train, report.train);
  diff.Double("total_seconds", run.sim_total, report.total_seconds);
  diff.Double("he_seconds", run.sim_he, report.he_seconds);
  diff.Double("comm_seconds", run.sim_comm, report.comm_seconds);
  diff.Double("other_seconds", run.sim_other, report.other_seconds);
  diff.Count("net.bytes", run.net_bytes, report.comm_bytes);
  diff.Count("net.messages", run.net_messages, report.comm_messages);
  diff.Ops(run.ops, report.he_ops);
  return diff.str();
}

std::string CompareRealModeled(const StackRun& real, const StackRun& modeled) {
  Diff diff;
  diff.Losses(real.train, modeled.train);
  diff.Double("sim_epoch_s", real.sim_epoch_s(), modeled.sim_epoch_s());
  return diff.str();
}

std::string CompareRepetition(const StackRun& first, const StackRun& again) {
  Diff diff;
  diff.Losses(first.train, again.train);
  diff.Double("sim_total", first.sim_total, again.sim_total);
  diff.Count("net.bytes", first.net_bytes, again.net_bytes);
  diff.Count("net.messages", first.net_messages, again.net_messages);
  diff.Ops(first.ops, again.ops);
  return diff.str();
}

}  // namespace perfbench
