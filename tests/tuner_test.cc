// Tests for the auto-tuner (src/core/tuner.h): knob space shape, workload
// fingerprints, the determinism contract (same seed + workload -> identical
// chosen knobs, and a tuned run is bit-identical to a direct run with those
// knobs), the TuningCache warm-up skip, and thread-count invariance of the
// search.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/platform.h"
#include "src/core/tuner.h"
#include "src/obs/metrics.h"
#include "src/obs/run_status.h"

namespace flb::tune {
namespace {

core::PlatformConfig SmallConfig() {
  core::PlatformConfig config;
  config.engine = core::EngineKind::kFlBooster;
  config.model = core::FlModelKind::kHomoLr;
  config.dataset.rows = 200;
  config.dataset.cols = 32;
  config.dataset.nnz_per_row = 8;
  config.num_parties = 4;
  config.key_bits = 256;
  config.modeled = true;
  config.train.max_epochs = 2;
  config.train.batch_size = 64;
  return config;
}

double MetricValueOf(const std::string& name) {
  double total = 0.0;
  for (const auto& metric : obs::MetricsRegistry::Global().Collect()) {
    if (metric.name == name) total += metric.value;
  }
  return total;
}

void ResetTunerState() {
  TuningCache::Global().Clear();
  obs::MetricsRegistry::Global().ResetAll();
  obs::RunStatus::Global().Reset();
}

TEST(KnobConfigTest, ToStringParseRoundTrip) {
  KnobConfig knobs;
  knobs.gpu_streams = 4;
  knobs.ghe_chunks_per_stream = 2;
  knobs.batch_size = 512;
  knobs.use_bc = 1;
  EXPECT_EQ(knobs.ToString(), "streams=4 chunks=2 batch=512 bc=1");
  const std::optional<KnobConfig> parsed = KnobConfig::Parse(knobs.ToString());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, knobs);
}

TEST(KnobConfigTest, ParseRejectsMalformed) {
  EXPECT_FALSE(KnobConfig::Parse("").has_value());
  EXPECT_FALSE(KnobConfig::Parse("streams=4").has_value());
  EXPECT_FALSE(KnobConfig::Parse("garbage here entirely").has_value());
  // Out-of-range values are rejected, not trusted.
  EXPECT_FALSE(
      KnobConfig::Parse("streams=9999 chunks=1 batch=64 bc=-1").has_value());
  EXPECT_FALSE(
      KnobConfig::Parse("streams=4 chunks=1 batch=64 bc=7").has_value());
  // A v1 line (with the retired threads/fixed fields) and trailing junk
  // are malformed in the v2 format.
  EXPECT_FALSE(
      KnobConfig::Parse("streams=4 chunks=1 threads=0 batch=64 bc=1 fixed=1")
          .has_value());
  EXPECT_FALSE(
      KnobConfig::Parse("streams=4 chunks=1 batch=64 bc=1 fixed=1")
          .has_value());
}

TEST(KnobSpaceTest, GpuEngineSearchesStreamsAndChunks) {
  const KnobSpace space = KnobSpace::For(SmallConfig());
  EXPECT_EQ(space.gpu_streams, (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(space.chunks_per_stream, (std::vector<int>{1, 2, 4}));
  // Batch sizes bracket the workload default, clamped to the dataset.
  ASSERT_FALSE(space.batch_sizes.empty());
  for (const int batch : space.batch_sizes) {
    EXPECT_GE(batch, 16);
    EXPECT_LE(batch, 200);
  }
  const size_t expected = space.gpu_streams.size() *
                          space.chunks_per_stream.size() *
                          space.batch_sizes.size() * space.use_bc.size();
  EXPECT_EQ(space.Enumerate().size(), expected);
}

TEST(KnobSpaceTest, CpuEnginePinsDeviceAxes) {
  core::PlatformConfig config = SmallConfig();
  config.engine = core::EngineKind::kFate;
  const KnobSpace space = KnobSpace::For(config);
  EXPECT_EQ(space.gpu_streams, (std::vector<int>{0}));
  EXPECT_EQ(space.chunks_per_stream, (std::vector<int>{0}));
}

TEST(FingerprintTest, SeedExcludedWorkloadIncluded) {
  const core::PlatformConfig base = SmallConfig();
  core::PlatformConfig reseeded = base;
  reseeded.seed = base.seed + 12345;
  // Runs differing only by seed share tuned knobs.
  EXPECT_EQ(AutoTuner::Fingerprint(base), AutoTuner::Fingerprint(reseeded));

  core::PlatformConfig bigger_key = base;
  bigger_key.key_bits = 512;
  EXPECT_NE(AutoTuner::Fingerprint(base), AutoTuner::Fingerprint(bigger_key));
  core::PlatformConfig other_model = base;
  other_model.model = core::FlModelKind::kHeteroLr;
  EXPECT_NE(AutoTuner::Fingerprint(base),
            AutoTuner::Fingerprint(other_model));
}

TEST(AutoTunerTest, ApplyDefaultsIsIdentityOnKnobFields) {
  const core::PlatformConfig base = SmallConfig();
  const core::PlatformConfig applied = AutoTuner::Apply(base, KnobConfig{});
  EXPECT_EQ(applied.gpu_streams, base.gpu_streams);
  EXPECT_EQ(applied.ghe_chunks_per_stream, base.ghe_chunks_per_stream);
  EXPECT_EQ(applied.host_threads, base.host_threads);
  EXPECT_EQ(applied.train.batch_size, base.train.batch_size);
  EXPECT_EQ(applied.use_bc, base.use_bc);
  EXPECT_EQ(applied.use_fixed_width_kernels, base.use_fixed_width_kernels);

  // The unsearched knobs pass through a non-default candidate too.
  core::PlatformConfig hand_set = base;
  hand_set.host_threads = 3;
  hand_set.use_fixed_width_kernels = false;
  KnobConfig knobs;
  knobs.gpu_streams = 2;
  knobs.batch_size = 32;
  const core::PlatformConfig tuned = AutoTuner::Apply(hand_set, knobs);
  EXPECT_EQ(tuned.host_threads, 3);
  EXPECT_FALSE(tuned.use_fixed_width_kernels);
  EXPECT_EQ(tuned.gpu_streams, 2);
  EXPECT_EQ(tuned.train.batch_size, 32);
}

TEST(AutoTunerTest, SearchIsDeterministic) {
  const core::PlatformConfig config = SmallConfig();
  ResetTunerState();
  auto first = AutoTuner::Tune(config);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cache_hit);
  EXPECT_GT(first.value().warmup_runs, 0);

  TuningCache::Global().Clear();  // force a fresh search, not a cache hit
  auto second = AutoTuner::Tune(config);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().cache_hit);
  EXPECT_EQ(first.value().chosen, second.value().chosen);
  EXPECT_EQ(first.value().warmup_runs, second.value().warmup_runs);
  EXPECT_EQ(first.value().warmup_seconds, second.value().warmup_seconds);
  EXPECT_EQ(first.value().measured_seconds, second.value().measured_seconds);
}

TEST(AutoTunerTest, TunedRunBitIdenticalToDirectRun) {
  core::PlatformConfig config = SmallConfig();
  ResetTunerState();
  FILE* devnull = nullptr;  // silence nothing; runs are quiet already
  (void)devnull;
  auto outcome = AutoTuner::Tune(config);
  ASSERT_TRUE(outcome.ok());

  // The tuned path: Run resolves knobs through the tuner (cache hit now).
  core::PlatformConfig tuned_config = config;
  tuned_config.auto_tune = true;
  auto tuned = core::Platform::Run(tuned_config);
  ASSERT_TRUE(tuned.ok());

  // The direct path: same knobs applied by hand, no tuner involved.
  const core::PlatformConfig direct_config =
      AutoTuner::Apply(config, outcome.value().chosen);
  auto direct = core::Platform::Run(direct_config);
  ASSERT_TRUE(direct.ok());

  EXPECT_EQ(tuned.value().total_seconds, direct.value().total_seconds);
  EXPECT_EQ(tuned.value().he_seconds, direct.value().he_seconds);
  EXPECT_EQ(tuned.value().comm_seconds, direct.value().comm_seconds);
  EXPECT_EQ(tuned.value().comm_bytes, direct.value().comm_bytes);
  EXPECT_EQ(tuned.value().comm_messages, direct.value().comm_messages);
  EXPECT_EQ(tuned.value().he_ops.encrypts, direct.value().he_ops.encrypts);
  EXPECT_EQ(tuned.value().he_ops.values_encrypted,
            direct.value().he_ops.values_encrypted);
  ASSERT_EQ(tuned.value().train.epochs.size(),
            direct.value().train.epochs.size());
  for (size_t i = 0; i < tuned.value().train.epochs.size(); ++i) {
    EXPECT_EQ(tuned.value().train.epochs[i].loss,
              direct.value().train.epochs[i].loss);
    EXPECT_EQ(tuned.value().train.epochs[i].accuracy,
              direct.value().train.epochs[i].accuracy);
  }
  EXPECT_EQ(tuned.value().train.final_loss, direct.value().train.final_loss);
}

TEST(AutoTunerTest, CacheHitSkipsWarmup) {
  const core::PlatformConfig config = SmallConfig();
  ResetTunerState();

  auto first = AutoTuner::Tune(config);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cache_hit);
  const double warmups_after_first = MetricValueOf("flb.tuner.warmup_runs");
  EXPECT_GT(warmups_after_first, 0.0);
  EXPECT_EQ(MetricValueOf("flb.tuner.cache_misses"), 1.0);
  EXPECT_EQ(MetricValueOf("flb.tuner.cache_hits"), 0.0);

  auto second = AutoTuner::Tune(config);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(second.value().warmup_runs, 0);
  EXPECT_EQ(second.value().chosen, first.value().chosen);
  // The warm-up counter did not move: the cached path ran zero probes.
  EXPECT_EQ(MetricValueOf("flb.tuner.warmup_runs"), warmups_after_first);
  EXPECT_EQ(MetricValueOf("flb.tuner.cache_hits"), 1.0);
}

TEST(AutoTunerTest, SearchInvariantToHostThreadCount) {
  std::optional<KnobConfig> reference;
  for (const int threads : {1, 2, 8}) {
    core::PlatformConfig config = SmallConfig();
    config.host_threads = threads;
    ResetTunerState();
    auto outcome = AutoTuner::Tune(config);
    ASSERT_TRUE(outcome.ok());
    if (!reference.has_value()) {
      reference = outcome.value().chosen;
    } else {
      EXPECT_EQ(outcome.value().chosen, *reference)
          << "host_threads=" << threads
          << " changed the chosen knobs: the search must depend only on "
             "simulated time";
    }
  }
}

TEST(AutoTunerTest, ProbesDoNotTouchRunStatus) {
  const core::PlatformConfig config = SmallConfig();
  ResetTunerState();
  const std::string phase_before = obs::RunStatus::Global().phase();
  auto outcome = AutoTuner::Tune(config);
  ASSERT_TRUE(outcome.ok());
  // 16 probe runs happened, yet /status never left its pre-search phase.
  EXPECT_EQ(obs::RunStatus::Global().phase(), phase_before);
  // The tuner block itself is published.
  const std::string json = obs::RunStatus::Global().ToJson();
  EXPECT_NE(json.find("\"tuner\""), std::string::npos);
  EXPECT_NE(json.find(outcome.value().fingerprint), std::string::npos);
}

TEST(TuningCacheTest, DiskRoundTripAndCorruptLines) {
  const std::string path = ::testing::TempDir() + "/flb_tuner_cache_test.txt";
  std::remove(path.c_str());
  KnobConfig knobs;
  knobs.gpu_streams = 8;
  knobs.batch_size = 128;
  knobs.use_bc = 0;

  TuningCache::Global().Clear();
  ASSERT_TRUE(TuningCache::Global().Store(path, "deadbeef00000001", knobs).ok());

  // A fresh in-memory state must fall back to the file.
  TuningCache::Global().Clear();
  const std::optional<KnobConfig> loaded =
      TuningCache::Global().Lookup(path, "deadbeef00000001");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, knobs);
  EXPECT_FALSE(
      TuningCache::Global().Lookup(path, "0000000000000000").has_value());

  // Corrupt lines are skipped, valid ones still load.
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "flbtune v2\n");
  std::fprintf(f, "deadbeef00000002 total garbage\n");
  std::fprintf(f, "deadbeef00000003 %s\n", knobs.ToString().c_str());
  std::fclose(f);
  TuningCache::Global().Clear();
  EXPECT_FALSE(
      TuningCache::Global().Lookup(path, "deadbeef00000002").has_value());
  const std::optional<KnobConfig> valid =
      TuningCache::Global().Lookup(path, "deadbeef00000003");
  ASSERT_TRUE(valid.has_value());
  EXPECT_EQ(*valid, knobs);

  std::remove(path.c_str());
  TuningCache::Global().Clear();
}

TEST(TuningCacheTest, V1FileIsIgnored) {
  // A cache written before the v2 line format: the header alone rejects
  // the file, so none of its entries are misparsed into knobs.
  const std::string path = ::testing::TempDir() + "/flb_tuner_cache_v1.txt";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "flbtune v1\n");
  std::fprintf(f,
               "deadbeef00000004 streams=4 chunks=2 threads=0 batch=128 "
               "bc=1 fixed=1\n");
  std::fprintf(f, "deadbeef00000005 streams=4 chunks=2 batch=128 bc=1\n");
  std::fclose(f);
  TuningCache::Global().Clear();
  EXPECT_FALSE(
      TuningCache::Global().Lookup(path, "deadbeef00000004").has_value());
  EXPECT_FALSE(
      TuningCache::Global().Lookup(path, "deadbeef00000005").has_value());

  // Storing over it rewrites the file as v2, which then loads.
  KnobConfig knobs;
  knobs.gpu_streams = 2;
  ASSERT_TRUE(
      TuningCache::Global().Store(path, "deadbeef00000006", knobs).ok());
  TuningCache::Global().Clear();
  const std::optional<KnobConfig> loaded =
      TuningCache::Global().Lookup(path, "deadbeef00000006");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, knobs);
  EXPECT_FALSE(
      TuningCache::Global().Lookup(path, "deadbeef00000004").has_value());

  std::remove(path.c_str());
  TuningCache::Global().Clear();
}

TEST(AutoTunerTest, AutoTuneOffLeavesRunUntouched) {
  // The default-off path must be byte-identical to a direct run: Run with
  // auto_tune=false never consults the tuner or the cache.
  core::PlatformConfig config = SmallConfig();
  ResetTunerState();
  auto plain = core::Platform::Run(config);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(MetricValueOf("flb.tuner.cache_hits"), 0.0);
  EXPECT_EQ(MetricValueOf("flb.tuner.cache_misses"), 0.0);
  EXPECT_EQ(MetricValueOf("flb.tuner.warmup_runs"), 0.0);
}

}  // namespace
}  // namespace flb::tune
