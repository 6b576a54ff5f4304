// Differential test: modeled (plaintext-shadow) execution must charge,
// count and compute exactly what real Paillier does, for every trainer on
// every engine. The paper tables come from modeled mode, so any drift
// between the two modes is a wrong table cell. Equality is exact: the loss,
// every SimClock category, every HE op count and every network byte.

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <tuple>

#include "src/core/he_service.h"
#include "src/core/platform.h"
#include "src/fl/hetero_lr.h"
#include "src/fl/hetero_nn.h"
#include "src/fl/hetero_sbt.h"
#include "src/fl/homo_lr.h"
#include "src/fl/homo_nn.h"
#include "src/fl/partition.h"

namespace flb {
namespace {

using core::EngineKind;
using core::FlModelKind;
using core::HeService;

struct CellRun {
  fl::TrainResult train;
  SimClock clock;
  core::HeOpCounts ops;
  net::NetworkStats net;
  double sm_utilization = 0;
};

// One training run of `config` through the same stack Platform::Run wires
// (HeServiceOptionsFor, the device for GPU engines, the gigabit link), with
// the clock kept so every cost category can be compared.
std::unique_ptr<CellRun> RunCell(const core::PlatformConfig& config) {
  auto out = std::make_unique<CellRun>();
  std::shared_ptr<gpusim::Device> device;
  const core::EngineTraits traits = core::TraitsFor(config.engine);
  if (traits.gpu_he) {
    device = std::make_shared<gpusim::Device>(
        gpusim::DeviceSpec::Rtx3090(), &out->clock, traits.branch_combining);
  }
  net::Network network(config.link, &out->clock);
  const core::HeServiceOptions opts = core::HeServiceOptionsFor(config);
  auto he = HeService::Create(opts, &out->clock, device);
  EXPECT_TRUE(he.ok()) << he.status().ToString();
  if (!he.ok()) return out;
  const fl::FlSession session{he->get(), &network, &out->clock};
  const fl::Dataset ds = fl::GenerateDataset(config.dataset).value();
  const int parties = opts.participants;

  Result<fl::TrainResult> result = Status::Internal("unset");
  switch (config.model) {
    case FlModelKind::kHomoLr:
      result = fl::HomoLrTrainer(fl::HorizontalSplit(ds, parties).value(),
                                 session, config.train)
                   .Train();
      break;
    case FlModelKind::kHeteroLr:
      result = fl::HeteroLrTrainer(fl::VerticalSplit(ds, parties).value(),
                                   session, config.train)
                   .Train();
      break;
    case FlModelKind::kHeteroSbt:
      result = fl::HeteroSbtTrainer(fl::VerticalSplit(ds, parties).value(),
                                    session, config.train, config.sbt)
                   .Train();
      break;
    case FlModelKind::kHeteroNn:
      result = fl::HeteroNnTrainer(fl::VerticalSplit(ds, 2).value(), session,
                                   config.train, config.nn)
                   .Train();
      break;
    case FlModelKind::kHomoNn:
      result = fl::HomoNnTrainer(fl::HorizontalSplit(ds, parties).value(),
                                 session, config.train, config.homo_nn)
                   .Train();
      break;
  }
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) out->train = std::move(result).value();
  out->ops = (*he)->op_counts();
  out->net = network.stats();
  if (device != nullptr) {
    out->sm_utilization = device->stats().MeanSmUtilization();
  }
  return out;
}

using Cell = std::tuple<FlModelKind, EngineKind>;

class ModeledRealTest : public ::testing::TestWithParam<Cell> {};

TEST_P(ModeledRealTest, MatchesExactly) {
  core::PlatformConfig config;
  config.model = std::get<0>(GetParam());
  config.engine = std::get<1>(GetParam());
  config.key_bits = 512;
  config.dataset.kind = fl::DatasetKind::kSynthetic;
  config.dataset.rows = 128;
  config.dataset.cols = 12;
  config.dataset.nnz_per_row = 12;
  config.train.max_epochs = 1;

  config.modeled = false;
  const auto real = RunCell(config);
  config.modeled = true;
  const auto modeled = RunCell(config);

  ASSERT_EQ(real->train.epochs.size(), modeled->train.epochs.size());
  for (size_t e = 0; e < real->train.epochs.size(); ++e) {
    const fl::EpochRecord& r = real->train.epochs[e];
    const fl::EpochRecord& m = modeled->train.epochs[e];
    EXPECT_EQ(r.loss, m.loss) << "epoch " << e;
    EXPECT_EQ(r.sim_seconds_cum, m.sim_seconds_cum) << "epoch " << e;
    EXPECT_EQ(r.comm_bytes, m.comm_bytes) << "epoch " << e;
  }
  for (int k = 0; k <= static_cast<int>(CostKind::kOther); ++k) {
    const auto kind = static_cast<CostKind>(k);
    EXPECT_EQ(real->clock.Elapsed(kind), modeled->clock.Elapsed(kind))
        << CostKindName(kind);
  }
  EXPECT_EQ(real->ops.encrypts, modeled->ops.encrypts);
  EXPECT_EQ(real->ops.decrypts, modeled->ops.decrypts);
  EXPECT_EQ(real->ops.hom_adds, modeled->ops.hom_adds);
  EXPECT_EQ(real->ops.scalar_muls, modeled->ops.scalar_muls);
  EXPECT_EQ(real->ops.values_encrypted, modeled->ops.values_encrypted);
  EXPECT_EQ(real->ops.values_decrypted, modeled->ops.values_decrypted);
  EXPECT_EQ(real->net.bytes, modeled->net.bytes);
  EXPECT_EQ(real->net.messages, modeled->net.messages);
  EXPECT_EQ(real->sm_utilization, modeled->sm_utilization);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, ModeledRealTest,
    ::testing::Combine(
        ::testing::Values(FlModelKind::kHomoLr, FlModelKind::kHeteroLr,
                          FlModelKind::kHeteroSbt, FlModelKind::kHeteroNn,
                          FlModelKind::kHomoNn),
        ::testing::Values(EngineKind::kFate, EngineKind::kHaflo,
                          EngineKind::kFlBooster, EngineKind::kFlBoosterNoGhe,
                          EngineKind::kFlBoosterNoBc)),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string name = core::ModelName(std::get<0>(info.param)) + "_" +
                         core::EngineName(std::get<1>(info.param));
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace flb
