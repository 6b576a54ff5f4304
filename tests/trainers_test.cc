// End-to-end federated training tests: each of the four models trains with
// real (small-key) Paillier and with the modeled engine, converging on the
// synthetic datasets and agreeing across execution modes.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/he_service.h"
#include "src/core/platform.h"
#include "src/fl/hetero_lr.h"
#include "src/fl/hetero_nn.h"
#include "src/fl/hetero_sbt.h"
#include "src/fl/homo_lr.h"
#include "src/fl/partition.h"

namespace flb {
namespace {

using core::EngineKind;
using core::HeService;
using core::HeServiceOptions;

struct Harness {
  SimClock clock;
  std::shared_ptr<gpusim::Device> device;
  net::Network network{net::LinkSpec::GigabitEthernet(), &clock};
  std::unique_ptr<HeService> he;

  fl::FlSession session() {
    return fl::FlSession{he.get(), &network, &clock};
  }
};

std::unique_ptr<Harness> MakeHarness(EngineKind engine, int parties,
                                     bool modeled, int key_bits = 256) {
  auto h = std::make_unique<Harness>();
  h->device = std::make_shared<gpusim::Device>(
      gpusim::DeviceSpec::Rtx3090(), &h->clock,
      core::TraitsFor(engine).branch_combining);
  HeServiceOptions opts;
  opts.engine = engine;
  opts.key_bits = key_bits;
  opts.r_bits = 14;
  opts.participants = parties;
  opts.frac_bits = 16;
  opts.fp_compress_slot_bits = 40;
  opts.modeled = modeled;
  auto he = HeService::Create(opts, &h->clock, h->device);
  EXPECT_TRUE(he.ok()) << he.status().ToString();
  h->he = std::move(he).value();
  return h;
}

fl::Dataset SmallDataset(fl::DatasetKind kind, size_t rows, size_t cols) {
  fl::DatasetSpec spec;
  spec.kind = kind;
  spec.rows = rows;
  spec.cols = cols;
  spec.nnz_per_row = std::min<size_t>(cols, kind == fl::DatasetKind::kSynthetic
                                                ? cols
                                                : cols / 4);
  return fl::GenerateDataset(spec).value();
}

fl::TrainConfig QuickConfig(int epochs, int batch) {
  fl::TrainConfig cfg;
  cfg.max_epochs = epochs;
  cfg.batch_size = batch;
  cfg.learning_rate = 0.1;
  cfg.tolerance = 1e-9;  // do not stop early in tests
  return cfg;
}

// ---------------------------------------------------------------------------
// Homo LR
// ---------------------------------------------------------------------------

TEST(HomoLrTest, LossDecreasesWithRealHe) {
  auto h = MakeHarness(EngineKind::kFlBooster, 3, /*modeled=*/false);
  auto ds = SmallDataset(fl::DatasetKind::kSynthetic, 120, 12);
  auto shards = fl::HorizontalSplit(ds, 3).value();
  fl::HomoLrTrainer trainer(shards, h->session(), QuickConfig(4, 64));
  auto result = trainer.Train().value();
  ASSERT_EQ(result.epochs.size(), 4u);
  EXPECT_LT(result.final_loss, result.epochs.front().loss);
  EXPECT_LT(result.final_loss, 0.69);  // better than chance
  EXPECT_GT(result.final_accuracy, 0.6);
  // Component accounting present.
  EXPECT_GT(result.epochs[0].he_seconds, 0.0);
  EXPECT_GT(result.epochs[0].comm_seconds, 0.0);
  EXPECT_GT(result.epochs[0].comm_bytes, 0u);
}

TEST(HomoLrTest, ModeledMatchesRealLossTrajectory) {
  auto ds = SmallDataset(fl::DatasetKind::kSynthetic, 90, 10);
  auto shards = fl::HorizontalSplit(ds, 3).value();

  auto real = MakeHarness(EngineKind::kFlBooster, 3, false);
  fl::HomoLrTrainer rt(shards, real->session(), QuickConfig(3, 64));
  auto rres = rt.Train().value();

  auto modeled = MakeHarness(EngineKind::kFlBooster, 3, true);
  fl::HomoLrTrainer mt(shards, modeled->session(), QuickConfig(3, 64));
  auto mres = mt.Train().value();

  ASSERT_EQ(rres.epochs.size(), mres.epochs.size());
  for (size_t e = 0; e < rres.epochs.size(); ++e) {
    // Identical quantization + identical arithmetic: the trajectories match
    // exactly.
    EXPECT_EQ(rres.epochs[e].loss, mres.epochs[e].loss) << e;
  }
  // And the simulated time is the same: both modes charge one price.
  EXPECT_EQ(mres.TotalSimSeconds(), rres.TotalSimSeconds());
}

TEST(HomoLrTest, EnginesAgreeOnValuesDifferOnTime) {
  // Modeled execution at the paper's 1024-bit key size with a wide enough
  // gradient that HE and communication dominate the fixed per-message
  // latency.
  auto ds = SmallDataset(fl::DatasetKind::kSynthetic, 90, 300);
  auto shards = fl::HorizontalSplit(ds, 3).value();

  auto fate = MakeHarness(EngineKind::kFate, 3, true, 1024);
  fl::HomoLrTrainer ft(shards, fate->session(), QuickConfig(2, 64));
  auto fres = ft.Train().value();

  auto booster = MakeHarness(EngineKind::kFlBooster, 3, true, 1024);
  fl::HomoLrTrainer bt(shards, booster->session(), QuickConfig(2, 64));
  auto bres = bt.Train().value();

  EXPECT_NEAR(fres.final_loss, bres.final_loss, 1e-6);
  // FLBooster is dramatically faster per epoch.
  EXPECT_LT(10 * bres.TotalSimSeconds(), fres.TotalSimSeconds());
  // And moves far fewer bytes (batch compression).
  EXPECT_LT(5 * bres.epochs[0].comm_bytes, fres.epochs[0].comm_bytes);
}

// ---------------------------------------------------------------------------
// Hetero LR
// ---------------------------------------------------------------------------

TEST(HeteroLrTest, LossDecreasesWithRealHe) {
  auto h = MakeHarness(EngineKind::kFlBooster, 3, false);
  auto ds = SmallDataset(fl::DatasetKind::kSynthetic, 120, 15);
  auto part = fl::VerticalSplit(ds, 3).value();
  fl::HeteroLrTrainer trainer(part, h->session(), QuickConfig(4, 64));
  auto result = trainer.Train().value();
  EXPECT_LT(result.final_loss, result.epochs.front().loss);
  EXPECT_LT(result.final_loss, 0.69);
  // All three parties trained weights.
  EXPECT_EQ(trainer.weights().size(), 3u);
}

TEST(HeteroLrTest, SinglePartyDegeneratesToLocal) {
  auto h = MakeHarness(EngineKind::kFlBooster, 1, false);
  auto ds = SmallDataset(fl::DatasetKind::kSynthetic, 80, 8);
  auto part = fl::VerticalSplit(ds, 1).value();
  fl::HeteroLrTrainer trainer(part, h->session(), QuickConfig(3, 40));
  auto result = trainer.Train().value();
  EXPECT_LT(result.final_loss, result.epochs.front().loss);
}

// ---------------------------------------------------------------------------
// Hetero SBT
// ---------------------------------------------------------------------------

TEST(HeteroSbtTest, BoostingReducesLossRealHe) {
  auto h = MakeHarness(EngineKind::kFlBooster, 2, false);
  auto ds = SmallDataset(fl::DatasetKind::kSynthetic, 80, 8);
  auto part = fl::VerticalSplit(ds, 2).value();
  fl::TrainConfig cfg = QuickConfig(3, 80);
  cfg.learning_rate = 0.5;
  fl::SbtParams params;
  params.max_depth = 3;
  params.num_bins = 8;
  fl::HeteroSbtTrainer trainer(part, h->session(), cfg, params);
  auto result = trainer.Train().value();
  ASSERT_EQ(trainer.trees().size(), result.epochs.size());
  EXPECT_LT(result.final_loss, result.epochs.front().loss + 1e-12);
  EXPECT_LT(result.final_loss, 0.69);
  // Trees actually split, and host features participate.
  bool any_split = false, any_host_split = false;
  for (const auto& tree : trainer.trees()) {
    for (const auto& node : tree.nodes) {
      if (!node.is_leaf) {
        any_split = true;
        if (node.split_party != 0) any_host_split = true;
      }
    }
  }
  EXPECT_TRUE(any_split);
  EXPECT_TRUE(any_host_split);
}

TEST(HeteroSbtTest, ModeledMatchesRealTrees) {
  auto ds = SmallDataset(fl::DatasetKind::kRcv1, 60, 12);
  auto part = fl::VerticalSplit(ds, 2).value();
  fl::TrainConfig cfg = QuickConfig(2, 60);
  cfg.learning_rate = 0.5;
  fl::SbtParams params;
  params.max_depth = 2;
  params.num_bins = 4;

  auto real = MakeHarness(EngineKind::kFlBooster, 2, false);
  fl::HeteroSbtTrainer rt(part, real->session(), cfg, params);
  auto rres = rt.Train().value();

  auto modeled = MakeHarness(EngineKind::kFlBooster, 2, true);
  fl::HeteroSbtTrainer mt(part, modeled->session(), cfg, params);
  auto mres = mt.Train().value();

  ASSERT_EQ(rt.trees().size(), mt.trees().size());
  for (size_t t = 0; t < rt.trees().size(); ++t) {
    ASSERT_EQ(rt.trees()[t].nodes.size(), mt.trees()[t].nodes.size());
    for (size_t n = 0; n < rt.trees()[t].nodes.size(); ++n) {
      const auto& rn = rt.trees()[t].nodes[n];
      const auto& mn = mt.trees()[t].nodes[n];
      EXPECT_EQ(rn.is_leaf, mn.is_leaf);
      EXPECT_EQ(rn.split_party, mn.split_party);
      EXPECT_EQ(rn.split_feature, mn.split_feature);
      EXPECT_NEAR(rn.leaf_weight, mn.leaf_weight, 1e-6);
    }
  }
  EXPECT_NEAR(rres.final_loss, mres.final_loss, 1e-6);
}

// ---------------------------------------------------------------------------
// Hetero NN
// ---------------------------------------------------------------------------

TEST(HeteroNnTest, LossDecreasesWithRealHe) {
  auto h = MakeHarness(EngineKind::kFlBooster, 2, false);
  auto ds = SmallDataset(fl::DatasetKind::kSynthetic, 60, 10);
  auto part = fl::VerticalSplit(ds, 2).value();
  fl::TrainConfig cfg = QuickConfig(5, 30);
  cfg.learning_rate = 0.5;
  fl::NnParams params;
  params.bottom_dim = 4;
  params.interactive_dim = 4;
  fl::HeteroNnTrainer trainer(part, h->session(), cfg, params);
  auto result = trainer.Train().value();
  EXPECT_LT(result.final_loss, result.epochs.front().loss);
  EXPECT_GT(result.epochs[0].he_seconds, 0.0);
}

TEST(HeteroNnTest, ModeledMatchesReal) {
  auto ds = SmallDataset(fl::DatasetKind::kSynthetic, 40, 8);
  auto part = fl::VerticalSplit(ds, 2).value();
  fl::TrainConfig cfg = QuickConfig(2, 20);
  fl::NnParams params;
  params.bottom_dim = 3;
  params.interactive_dim = 3;

  auto real = MakeHarness(EngineKind::kFlBooster, 2, false);
  fl::HeteroNnTrainer rt(part, real->session(), cfg, params);
  auto rres = rt.Train().value();
  auto modeled = MakeHarness(EngineKind::kFlBooster, 2, true);
  fl::HeteroNnTrainer mt(part, modeled->session(), cfg, params);
  auto mres = mt.Train().value();
  // Fixed-point quantization is identical in both modes.
  EXPECT_NEAR(rres.final_loss, mres.final_loss, 1e-6);
}

// ---------------------------------------------------------------------------
// Platform facade
// ---------------------------------------------------------------------------

TEST(PlatformTest, RunsEveryModelModeled) {
  for (auto model :
       {core::FlModelKind::kHomoLr, core::FlModelKind::kHeteroLr,
        core::FlModelKind::kHeteroSbt, core::FlModelKind::kHeteroNn}) {
    core::PlatformConfig cfg;
    cfg.engine = EngineKind::kFlBooster;
    cfg.model = model;
    cfg.dataset =
        fl::DatasetSpec{fl::DatasetKind::kSynthetic, 64, 16, 16, 5};
    cfg.num_parties = 2;
    cfg.key_bits = 1024;
    cfg.modeled = true;
    cfg.train.max_epochs = 1;
    cfg.train.batch_size = 32;
    cfg.sbt.num_bins = 4;
    cfg.sbt.max_depth = 2;
    cfg.nn.bottom_dim = 3;
    cfg.nn.interactive_dim = 3;
    auto report = core::Platform::Run(cfg);
    ASSERT_TRUE(report.ok()) << core::ModelName(model) << ": "
                             << report.status().ToString();
    EXPECT_GT(report->total_seconds, 0.0) << core::ModelName(model);
    EXPECT_GT(report->he_seconds, 0.0) << core::ModelName(model);
    EXPECT_GT(report->comm_bytes, 0u) << core::ModelName(model);
    EXPECT_GT(report->he_ops.encrypts, 0u) << core::ModelName(model);
    EXPECT_GT(report->sm_utilization, 0.0) << core::ModelName(model);
  }
}

TEST(PlatformTest, EngineOrderingHoldsAtScale) {
  // FATE slower than HAFLO slower than FLBooster on the same workload —
  // the paper's headline ordering (Table III).
  auto run = [](EngineKind engine) {
    core::PlatformConfig cfg;
    cfg.engine = engine;
    cfg.model = core::FlModelKind::kHomoLr;
    cfg.dataset = fl::DatasetSpec{fl::DatasetKind::kRcv1, 256, 512, 40, 5};
    cfg.num_parties = 4;
    cfg.key_bits = 1024;
    cfg.modeled = true;
    cfg.train.max_epochs = 1;
    cfg.train.batch_size = 128;
    return core::Platform::Run(cfg).value();
  };
  auto fate = run(EngineKind::kFate);
  auto haflo = run(EngineKind::kHaflo);
  auto booster = run(EngineKind::kFlBooster);
  EXPECT_GT(fate.total_seconds, haflo.total_seconds);
  EXPECT_GT(haflo.total_seconds, booster.total_seconds);
  // Loss identical across engines (acceleration does not change learning
  // beyond quantization, which all engines share).
  EXPECT_NEAR(fate.train.final_loss, booster.train.final_loss, 5e-3);
  // Compression only in FLBooster.
  EXPECT_GT(booster.pack_ratio, 10.0);
  EXPECT_DOUBLE_EQ(fate.pack_ratio, 1.0);
  EXPECT_LT(booster.comm_bytes, haflo.comm_bytes / 10);
}

TEST(PlatformTest, AblationOrdering) {
  auto run = [](EngineKind engine) {
    core::PlatformConfig cfg;
    cfg.engine = engine;
    cfg.model = core::FlModelKind::kHomoLr;
    cfg.dataset = fl::DatasetSpec{fl::DatasetKind::kSynthetic, 128, 256, 256, 5};
    cfg.num_parties = 4;
    cfg.key_bits = 1024;
    cfg.modeled = true;
    cfg.train.max_epochs = 1;
    cfg.train.batch_size = 64;
    return core::Platform::Run(cfg).value();
  };
  auto full = run(EngineKind::kFlBooster);
  auto no_ghe = run(EngineKind::kFlBoosterNoGhe);
  auto no_bc = run(EngineKind::kFlBoosterNoBc);
  // Removing either module hurts (Table V).
  EXPECT_GT(no_ghe.total_seconds, full.total_seconds);
  EXPECT_GT(no_bc.total_seconds, full.total_seconds);
  // w/o BC hurts more than w/o GHE at 1024 bits on comm-heavy workloads
  // (Table V's consistent pattern).
  EXPECT_GT(no_bc.total_seconds, no_ghe.total_seconds);
}

}  // namespace
}  // namespace flb
