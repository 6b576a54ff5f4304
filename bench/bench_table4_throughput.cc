// Table IV: throughput in HE operations (instances per second) — how many
// gradient values per second flow through encryption/aggregation/decryption
// under each engine.
//
// Shape targets: FATE in the hundreds, HAFLO orders of magnitude above it,
// FLBooster above HAFLO (packing multiplies value throughput); throughput
// falls roughly with the cube of the key size.

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/tuner.h"
#include "src/crypto/paillier.h"
#include "src/ghe/ghe_engine.h"

namespace {

// Multi-stream async GHE: model the same hom-add batch through a 1-stream
// (fully serialized) and a 4-stream (chunked, copy/compute overlapped)
// engine and compare the charged batch time. The host arithmetic is shared
// by both paths, so outputs are verified identical on real small-key
// ciphertexts first.
void PrintStreamOverlapSection() {
  using flb::Rng;
  using flb::mpint::BigInt;

  // Bit-exactness: the chunked schedule never touches the math.
  Rng rng(7);
  auto keys = flb::crypto::PaillierKeyGen(256, rng).value();
  auto ctx = flb::crypto::PaillierContext::Create(keys).value();
  std::vector<BigInt> ms;
  for (uint64_t i = 1; i <= 64; ++i) ms.push_back(BigInt(i * 17));
  flb::ghe::GheConfig four;
  four.streams = 4;
  four.adaptive_chunking = false;
  auto mk_device = [] {
    return std::make_shared<flb::gpusim::Device>(
        flb::gpusim::DeviceSpec::Rtx3090(), nullptr);
  };
  flb::ghe::GheEngine serial_engine(mk_device());
  flb::ghe::GheEngine chunked_engine(mk_device(), four);
  Rng r1(13), r4(13);
  auto cs1 = serial_engine.PaillierEncrypt(ctx, ms, r1).value();
  auto cs4 = chunked_engine.PaillierEncrypt(ctx, ms, r4).value();
  auto sum1 = serial_engine.PaillierAdd(ctx, cs1, cs1).value();
  auto sum4 = chunked_engine.PaillierAdd(ctx, cs4, cs4).value();
  bool identical = cs1.size() == cs4.size();
  for (size_t i = 0; identical && i < cs1.size(); ++i) {
    identical = cs1[i] == cs4[i] && sum1[i] == sum4[i];
  }

  flb::bench::BeginSection("stream_overlap");
  std::printf(
      "Multi-stream async GHE — modeled hom-add batch throughput "
      "(values/s)\n");
  std::printf("%5s %9s %12s %12s %8s\n", "key", "batch", "streams=1",
              "streams=4", "speedup");
  const int64_t batch = 1 << 16;
  for (int key : flb::bench::kKeySizes) {
    flb::SimClock c1, c4;
    auto d1 = std::make_shared<flb::gpusim::Device>(
        flb::gpusim::DeviceSpec::Rtx3090(), &c1);
    auto d4 = std::make_shared<flb::gpusim::Device>(
        flb::gpusim::DeviceSpec::Rtx3090(), &c4);
    flb::ghe::GheConfig cfg;
    cfg.streams = 1;
    flb::ghe::GheEngine one(d1, cfg);
    cfg.streams = 4;
    flb::ghe::GheEngine overlap(d4, cfg);
    one.ModelPaillierAdd(key, batch).value();
    overlap.ModelPaillierAdd(key, batch).value();
    const double t1 = c1.HeSeconds();
    const double t4 = c4.HeSeconds();
    std::printf("%5d %9lld %12.0f %12.0f %7.2fx\n", key,
                static_cast<long long>(batch), batch / t1, batch / t4,
                t1 / t4);
    const std::string suffix = "key=" + std::to_string(key);
    auto& json = flb::bench::BenchJson::Global();
    json.Record("hom_add_throughput_streams1," + suffix, batch / t1,
                "values/s");
    json.Record("hom_add_throughput_streams4," + suffix, batch / t4,
                "values/s");
    json.Record("stream_overlap_speedup," + suffix, t1 / t4, "x");
  }
  std::printf("Ciphertext outputs identical across paths: %s\n",
              identical ? "yes" : "NO — MISMATCH");
}

// Host execution engine: wall-clock cost of the real Paillier batch
// helpers. Two levers, measured separately:
//   - precompute caches: the seeded obfuscation pool (one MontMul per r^n
//     after the bases are built) vs secure_obfuscation (a fresh |n|-bit
//     powm per element) — compared at ONE thread so the ratio isolates the
//     cache, not parallelism;
//   - the work-stealing pool: the same batch at 1 thread vs all threads.
// Outputs are bit-identical across both thread counts (checked here).
void PrintHostWallclockSection() {
  using flb::Rng;
  using flb::WallTimer;
  using flb::common::ThreadPool;
  using flb::mpint::BigInt;

  flb::bench::BeginSection("host_wallclock");
  const int key = flb::bench::SmokeMode() ? 256 : 1024;
  const size_t batch = flb::bench::SmokeMode() ? 64 : 256;
  const int reps = flb::bench::SmokeMode() ? 1 : 3;

  Rng kg(77);
  auto keys = flb::crypto::PaillierKeyGen(key, kg).value();
  flb::crypto::PaillierOptions secure_opts;
  secure_opts.secure_obfuscation = true;
  auto secure_ctx =
      flb::crypto::PaillierContext::Create(keys, secure_opts).value();
  auto pool_ctx = flb::crypto::PaillierContext::Create(keys).value();

  std::vector<BigInt> ms;
  ms.reserve(batch);
  for (size_t i = 0; i < batch; ++i) ms.push_back(BigInt(i * 31 + 1));

  ThreadPool one(1);
  ThreadPool& many = ThreadPool::Global();

  auto time_encrypt = [&](const flb::crypto::PaillierContext& ctx,
                          ThreadPool* pool,
                          std::vector<BigInt>* out) {
    double best = 0;
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(11);  // same seed every run: outputs must be identical
      WallTimer t;
      *out = ctx.EncryptBatch(ms, rng, pool).value();
      const double s = t.ElapsedSeconds();
      if (rep == 0 || s < best) best = s;
    }
    return best * 1e3;
  };
  auto time_decrypt = [&](const std::vector<BigInt>& cs, ThreadPool* pool,
                          std::vector<BigInt>* out) {
    double best = 0;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer t;
      *out = pool_ctx.DecryptBatch(cs, pool).value();
      const double s = t.ElapsedSeconds();
      if (rep == 0 || s < best) best = s;
    }
    return best * 1e3;
  };

  std::vector<BigInt> enc_secure, enc_pool_1t, enc_pool_nt;
  const double secure_1t = time_encrypt(secure_ctx, &one, &enc_secure);
  const double pool_1t = time_encrypt(pool_ctx, &one, &enc_pool_1t);
  const double pool_nt = time_encrypt(pool_ctx, &many, &enc_pool_nt);
  std::vector<BigInt> dec_1t, dec_nt;
  const double dec_ms_1t = time_decrypt(enc_pool_1t, &one, &dec_1t);
  const double dec_ms_nt = time_decrypt(enc_pool_1t, &many, &dec_nt);

  bool identical = enc_pool_1t == enc_pool_nt && dec_1t == dec_nt;
  for (size_t i = 0; identical && i < batch; ++i) {
    identical = pool_ctx.Decrypt(enc_pool_1t[i]).value() == ms[i] &&
                pool_ctx.Decrypt(enc_secure[i]).value() == ms[i];
  }

  const int threads = many.num_threads();
  std::printf("Real Paillier batch wall-clock, key=%d batch=%zu\n", key,
              batch);
  std::printf("%-34s %10s\n", "path", "wall ms");
  std::printf("%-34s %10.2f\n", "encrypt secure powm, 1 thread", secure_1t);
  std::printf("%-34s %10.2f\n", "encrypt obf. pool,   1 thread", pool_1t);
  std::printf("%-34s %10.2f  (threads=%d)\n", "encrypt obf. pool,   N threads",
              pool_nt, threads);
  std::printf("%-34s %10.2f\n", "decrypt CRT,         1 thread", dec_ms_1t);
  std::printf("%-34s %10.2f  (threads=%d)\n", "decrypt CRT,         N threads",
              dec_ms_nt, threads);
  std::printf("precompute-cache speedup (1 thread): %.2fx\n",
              secure_1t / pool_1t);
  std::printf("thread speedup (encrypt): %.2fx  (decrypt): %.2fx\n",
              pool_1t / pool_nt, dec_ms_1t / dec_ms_nt);
  std::printf("Outputs identical across thread counts: %s\n",
              identical ? "yes" : "NO — MISMATCH");

  const std::string suffix = "key=" + std::to_string(key);
  auto& json = flb::bench::BenchJson::Global();
  json.Record("encrypt_secure_wall_ms,threads=1," + suffix, secure_1t, "ms");
  json.Record("encrypt_pool_wall_ms,threads=1," + suffix, pool_1t, "ms");
  json.Record("encrypt_pool_wall_ms,threads=" + std::to_string(threads) +
                  "," + suffix,
              pool_nt, "ms");
  json.Record("decrypt_wall_ms,threads=1," + suffix, dec_ms_1t, "ms");
  json.Record("decrypt_wall_ms,threads=" + std::to_string(threads) + "," +
                  suffix,
              dec_ms_nt, "ms");
  json.Record("precompute_cache_wall_speedup," + suffix, secure_1t / pool_1t,
              "x");
  json.Record("encrypt_thread_wall_speedup," + suffix, pool_1t / pool_nt,
              "x");
  json.Record("decrypt_thread_wall_speedup," + suffix, dec_ms_1t / dec_ms_nt,
              "x");
  json.Record("outputs_identical," + suffix, identical ? 1 : 0, "bool");
}

// Auto-tuner: tuned vs default knobs, and the tuned config's distance from
// the oracle-best point (exhaustive sweep of the same knob space). The key
// size stays 2048 even under FLB_SMOKE — the speedup gate in
// bench/baselines/autotune_smoke.json targets exactly this shape, and the
// runs are modeled so the big key costs nothing real. Runs LAST so the
// final metrics snapshot retains the flb.tuner.* series for
// validate_obs_json.sh.
void PrintAutotuneSection() {
  using flb::bench::EngineKind;
  using flb::bench::FlModelKind;
  using flb::core::PlatformConfig;
  using flb::core::RunReport;
  using flb::tune::AutoTuner;
  using flb::tune::KnobConfig;
  using flb::tune::KnobSpace;
  using flb::tune::TuneOutcome;

  flb::bench::BeginSection("autotune");
  std::printf(
      "Auto-tuned vs default knobs (modeled epoch seconds, key=2048)\n");
  std::printf("%-16s %10s %10s %10s %8s %8s\n", "engine", "default",
              "tuned", "oracle", "speedup", "%oracle");

  struct Case {
    EngineKind engine;
    const char* label;
  };
  // The w/o-BC ablation engine is the headline gate: its default leaves
  // batch compression off, which the tuner's use_bc axis can reclaim.
  const Case cases[] = {
      {EngineKind::kFlBooster, "flbooster"},
      {EngineKind::kFlBoosterNoBc, "flbooster_nobc"},
      {EngineKind::kFate, "fate"},
  };

  auto& json = flb::bench::BenchJson::Global();
  for (const Case& c : cases) {
    PlatformConfig cfg = flb::bench::WorkloadFor(
        FlModelKind::kHomoLr, flb::fl::DatasetKind::kSynthetic, c.engine,
        2048);
    const std::string suffix =
        "engine=" + std::string(c.label) + ",model=Homo LR,key=2048";

    const RunReport def = flb::bench::MustRun(cfg);

    auto tuned_outcome = AutoTuner::Tune(cfg);
    if (!tuned_outcome.ok()) {
      std::fprintf(stderr, "autotune failed: %s\n",
                   tuned_outcome.status().ToString().c_str());
      std::abort();
    }
    const TuneOutcome outcome = std::move(tuned_outcome).value();
    const RunReport tuned =
        flb::bench::MustRun(AutoTuner::Apply(cfg, outcome.chosen));

    // Oracle: exhaustive sweep of the same knob space the tuner searched
    // (plus the untouched default), at full fidelity.
    double oracle = def.SecondsPerEpoch();
    for (const KnobConfig& knobs : KnobSpace::For(cfg).Enumerate()) {
      const RunReport r = flb::bench::MustRun(AutoTuner::Apply(cfg, knobs));
      oracle = std::min(oracle, r.SecondsPerEpoch());
    }

    const double def_s = def.SecondsPerEpoch();
    const double tuned_s = tuned.SecondsPerEpoch();
    const double speedup = tuned_s > 0 ? def_s / tuned_s : 0.0;
    const double pct_oracle = tuned_s > 0 ? 100.0 * oracle / tuned_s : 0.0;
    std::printf("%-16s %10.3f %10.3f %10.3f %7.2fx %7.1f%%\n", c.label,
                def_s, tuned_s, oracle, speedup, pct_oracle);
    std::printf(
        "  %s: cache_hit=%d warmup_runs=%d warmup_s=%.3f\n  chosen: %s\n",
        c.label, outcome.cache_hit ? 1 : 0, outcome.warmup_runs,
        outcome.warmup_seconds, outcome.chosen.ToString().c_str());

    json.Record("autotune_epoch_seconds_default," + suffix, def_s, "s");
    json.Record("autotune_epoch_seconds_tuned," + suffix, tuned_s, "s");
    json.Record("autotune_epoch_seconds_oracle," + suffix, oracle, "s");
    json.Record("autotune_speedup," + suffix, speedup, "x");
    json.Record("autotune_pct_of_oracle," + suffix, pct_oracle, "%");
    json.Record("autotune_cache_hit," + suffix, outcome.cache_hit ? 1 : 0,
                "bool");
    json.Record("autotune_warmup_runs," + suffix, outcome.warmup_runs,
                "count");
    json.Record("autotune_warmup_seconds," + suffix, outcome.warmup_seconds,
                "s");
    json.Record("autotune_chosen_streams," + suffix,
                outcome.chosen.gpu_streams, "count");
    json.Record("autotune_chosen_chunks," + suffix,
                outcome.chosen.ghe_chunks_per_stream, "count");
    json.Record("autotune_chosen_batch," + suffix, outcome.chosen.batch_size,
                "rows");
    json.Record("autotune_chosen_bc," + suffix, outcome.chosen.use_bc,
                "enum");
  }
  std::printf(
      "Shape: tuned <= default everywhere; >= 1.3x on the w/o-BC 2048-bit "
      "workload; tuned within 10%% of the oracle sweep.\n");
}

}  // namespace

int main() {
  using namespace flb::bench;
  BeginSection("Table IV — HE-op throughput (values per second)");
  std::printf("%-12s %-10s %5s %12s %12s %12s\n", "Model", "Dataset", "key",
              "FATE", "HAFLO", "FLBooster");
  for (auto model : kAllModels) {
    for (auto dataset : kAllDatasets) {
      for (int key : kKeySizes) {
        double tp[3];
        const EngineKind engines[] = {EngineKind::kFate, EngineKind::kHaflo,
                                      EngineKind::kFlBooster};
        const char* engine_names[] = {"fate", "haflo", "flbooster"};
        for (int e = 0; e < 3; ++e) {
          tp[e] = MustRun(WorkloadFor(model, dataset, engines[e], key))
                      .he_throughput;
          BenchJson::Global().Record(
              "he_throughput,engine=" + std::string(engine_names[e]) +
                  ",model=" + flb::core::ModelName(model) +
                  ",dataset=" + flb::fl::DatasetName(dataset) +
                  ",key=" + std::to_string(key),
              tp[e], "values/s");
        }
        std::printf("%-12s %-10s %5d %12.0f %12.0f %12.0f\n",
                    flb::core::ModelName(model).c_str(),
                    flb::fl::DatasetName(dataset).c_str(), key, tp[0], tp[1],
                    tp[2]);
      }
    }
  }
  std::printf(
      "\nShape: FLBooster > HAFLO >> FATE; throughput decays steeply with "
      "key size (paper Table IV).\n");
  PrintStreamOverlapSection();
  PrintHostWallclockSection();
  PrintAutotuneSection();
  return 0;
}
