#include "perfbench/src/probes.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "perfbench/src/util.h"
#include "src/codec/batch_compressor.h"
#include "src/codec/fixed_point.h"
#include "src/codec/quantizer.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/he_service.h"
#include "src/crypto/montgomery.h"
#include "src/crypto/paillier.h"
#include "src/net/serializer.h"

namespace perfbench {
namespace {

using flb::Rng;
using flb::core::EncVec;
using flb::core::HeService;
using flb::mpint::BigInt;

// Minimum wall time each timed probe loop runs, per trial.
constexpr double kProbeSeconds = 0.05;

// Canonical replay shapes. Packed-sum: homo_lr_real's gradient (256
// features + bias). Fixed-point: hetero_sbt_real's root-node histogram
// (512 instances, one host's 8 features x 16 bins).
constexpr size_t kPackedDim = 257;
constexpr size_t kFpRows = 512;
constexpr size_t kFpFeatures = 8;
constexpr size_t kFpBins = 16;

std::vector<double> UniformValues(Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = 2.0 * rng.NextDouble() - 1.0;
  return v;
}

bool Close(const std::vector<double>& got, const std::vector<double>& want,
           double tol) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= tol)) return false;
  }
  return true;
}

}  // namespace

void ProbeKernels(const flb::core::PlatformConfig& cell, SpanRecorder* spans,
                  int parent, MetricSet* out, Ledger* ledger) {
  const int key_bits = cell.key_bits;
  Rng rng(cell.seed ^ 0x5eedULL);
  const int layer = spans->Begin("layers", parent);

  // crypto.keygen_s: the keys of the set-up panel, generated as
  // HeService::Create generates them (a generator seeded with the panel
  // seed, the cell's kernel options), so it measures the key work inside
  // setup_s; the mean over the panel, as setup_s combines it. The first
  // panel key is the context every other crypto probe uses.
  flb::crypto::PaillierOptions popts;
  popts.use_fixed_width_kernels = cell.use_fixed_width_kernels;
  double keygen_s = 0;
  flb::Result<flb::crypto::PaillierKeyPair> keys =
      flb::Status::Internal("not run");
  {
    ScopedSpan span(spans, "crypto.PaillierKeyGen", layer);
    for (int k = kSetupPanel - 1; k >= 0; --k) {
      Rng key_rng(kSetupPanelBase + static_cast<uint64_t>(k));
      const double start = WallNow();
      keys = flb::crypto::PaillierKeyGen(key_bits, key_rng, popts);
      keygen_s += (WallNow() - start) / kSetupPanel;
      ledger->Check(keys.ok(), "crypto keygen panel seed " +
                                   std::to_string(kSetupPanelBase + k));
      if (!keys.ok()) return;
    }
    span.Counter("keys", kSetupPanel);
  }
  auto ctx = flb::crypto::PaillierContext::Create(keys.value(), popts);
  ledger->Check(ctx.ok(), "crypto context");
  if (!ctx.ok()) return;
  const flb::crypto::PaillierContext& paillier = ctx.value();
  const BigInt& n = paillier.pub().n;
  const BigInt& n2 = paillier.pub().n_squared;
  out->push_back({"crypto.keygen_s", keygen_s, "s"});

  // mpint: Montgomery multiply and a |n|-bit exponentiation mod n^2.
  {
    ScopedSpan span(spans, "mpint.MontMul+ModPow", layer);
    const flb::crypto::MontgomeryContext& mont = paillier.n2_ctx();
    const BigInt a = mont.ToMont(BigInt::RandomBelow(rng, n2));
    const BigInt b = mont.ToMont(BigInt::RandomBelow(rng, n2));
    BigInt sink;
    const double montmul_s = TimePerCall(
        [&] {
          for (int i = 0; i < 64; ++i) sink = mont.MontMul(a, b);
        },
        kProbeSeconds);
    const BigInt exp = BigInt::Random(rng, key_bits);
    const double modpow_s =
        TimePerCall([&] { sink = mont.ModPow(a, exp); }, kProbeSeconds);
    out->push_back({"mpint.montmul_ns", montmul_s / 64 * 1e9, "ns"});
    out->push_back({"mpint.modpow_ms", modpow_s * 1e3, "ms"});
    span.Counter("n2_bits", n2.BitLength());
  }

  // crypto batch ops on the benchmark's host pool, per element.
  flb::common::ThreadPool pool(cell.host_threads);
  constexpr size_t kBatch = 64;
  std::vector<BigInt> ms(kBatch);
  for (BigInt& m : ms) m = BigInt::RandomBelow(rng, n);
  std::vector<BigInt> cs;
  {
    ScopedSpan span(spans, "crypto.EncryptBatch+DecryptBatch", layer);
    const double enc_s = TimePerCall(
        [&] { cs = paillier.EncryptBatch(ms, rng, &pool).value(); },
        kProbeSeconds);
    std::vector<BigInt> back;
    const double dec_s = TimePerCall(
        [&] { back = paillier.DecryptBatch(cs, &pool).value(); },
        kProbeSeconds);
    ledger->Check(back == ms, "crypto decrypt(encrypt(m)) == m");
    out->push_back({"crypto.encrypt_us", enc_s / kBatch * 1e6, "us"});
    out->push_back({"crypto.decrypt_us", dec_s / kBatch * 1e6, "us"});
  }
  {
    ScopedSpan span(spans, "crypto.AddBatch+ScalarMulBatch", layer);
    // Slot-shift exponents 2^(j * slot_bits), as CompressForTransmission
    // uses them.
    const int slot_bits = 2 * cell.frac_bits + 16;
    const int slots = std::max(1, key_bits / slot_bits);
    std::vector<BigInt> shifts(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      shifts[i] = BigInt::PowerOfTwo(static_cast<int>(i % slots) * slot_bits);
    }
    std::vector<BigInt> sums, scaled;
    const double add_s = TimePerCall(
        [&] { sums = paillier.AddBatch(cs, cs, &pool).value(); },
        kProbeSeconds);
    const double smul_s = TimePerCall(
        [&] { scaled = paillier.ScalarMulBatch(cs, shifts, &pool).value(); },
        kProbeSeconds);
    const auto dec_sum = paillier.Decrypt(sums.back());
    const auto dec_scaled = paillier.Decrypt(scaled.back());
    const BigInt want_sum = (ms.back() + ms.back()) % n;
    const BigInt want_scaled = (ms.back() * shifts.back()) % n;
    ledger->Check(dec_sum.ok() && dec_sum.value() == want_sum &&
                      dec_scaled.ok() && dec_scaled.value() == want_scaled,
                  "crypto add/scalar-mul decrypt to m+m and m*2^k");
    out->push_back({"crypto.add_us", add_s / kBatch * 1e6, "us"});
    out->push_back({"crypto.smul_us", smul_s / kBatch * 1e6, "us"});
  }

  // codec: BC packing and the fixed-point codec, per value.
  {
    ScopedSpan span(spans, "codec.BatchCompressor+FixedPointCodec", layer);
    flb::codec::QuantizerConfig qcfg;
    qcfg.alpha = cell.alpha;
    qcfg.r_bits = cell.r_bits;
    qcfg.participants = cell.num_parties;
    auto quantizer = flb::codec::Quantizer::Create(qcfg);
    auto bc = quantizer.ok() ? flb::codec::BatchCompressor::Create(
                                   quantizer.value(), key_bits)
                             : quantizer.status();
    auto fp = flb::codec::FixedPointCodec::Create(n, cell.frac_bits);
    ledger->Check(bc.ok() && fp.ok(), "codec create");
    if (!bc.ok() || !fp.ok()) return;
    constexpr size_t kValues = 4096;
    const std::vector<double> values = UniformValues(rng, kValues);
    std::vector<BigInt> packed;
    std::vector<double> unpacked;
    const double pack_s = TimePerCall(
        [&] { packed = bc->Pack(values).value(); }, kProbeSeconds);
    const double unpack_s = TimePerCall(
        [&] { unpacked = bc->Unpack(packed, kValues, 1).value(); },
        kProbeSeconds);
    ledger->Check(Close(unpacked, values, 1e-6), "codec unpack(pack(v)) ~ v");
    std::vector<double> decoded(kValues);
    const double fp_s = TimePerCall(
        [&] {
          for (size_t i = 0; i < kValues; ++i) {
            decoded[i] = fp->Decode(fp->Encode(values[i]).value()).value();
          }
        },
        kProbeSeconds);
    ledger->Check(Close(decoded, values, std::ldexp(1.0, -cell.frac_bits)),
                  "codec fixed-point decode(encode(v)) ~ v");
    out->push_back({"codec.pack_ns", pack_s / kValues * 1e9, "ns"});
    out->push_back({"codec.unpack_ns", unpack_s / kValues * 1e9, "ns"});
    out->push_back({"codec.fp_encode_ns", fp_s / kValues * 1e9, "ns"});
  }

  // net: fixed-width ciphertext batch serialize + deserialize.
  {
    ScopedSpan span(spans, "net.Serializer+Deserializer", layer);
    const size_t words = paillier.pub().CiphertextWords();
    std::vector<BigInt> back;
    size_t bytes = 0;
    const double serde_s = TimePerCall(
        [&] {
          flb::net::Serializer ser;
          ser.PutBigIntBatchFixed(cs, words);
          bytes = ser.size();
          flb::net::Deserializer de(ser.bytes());
          back = de.GetBigIntBatchFixed(words).value();
        },
        kProbeSeconds);
    ledger->Check(back == cs, "net serde round trip");
    out->push_back({"net.serde_mb_s",
                    static_cast<double>(bytes) / serde_s / 1e6, "MB/s"});
    span.Counter("bytes", static_cast<double>(bytes));
  }
  spans->End(layer);
}

void ProbeCore(const flb::core::PlatformConfig& cell, const StackRun& run,
               SpanRecorder* spans, int parent, MetricSet* out,
               Ledger* ledger) {
  const int layer = spans->Begin("core.replay " + CellName(cell), parent);
  flb::SimClock clock;
  auto device = MakeDevice(cell, &clock);
  auto created = HeService::Create(ServiceOptions(cell), &clock, device);
  ledger->Check(created.ok(), "core replay service");
  if (!created.ok()) return;
  HeService& he = *created.value();
  Rng rng(cell.seed ^ 0xc0feULL);
  const double fp_tol = std::ldexp(1.0, -he.options().frac_bits);

  // Times fn() and returns per-call milliseconds plus the op-count delta of
  // one call.
  struct Timing {
    double ms = 0;
    flb::core::HeOpCounts ops;
  };
  const auto time_call = [&](const char* name, auto&& fn) {
    ScopedSpan span(spans, name, layer);
    const flb::core::HeOpCounts before = he.op_counts();
    fn();
    const flb::core::HeOpCounts after = he.op_counts();
    Timing t;
    t.ops.encrypts = after.encrypts - before.encrypts;
    t.ops.decrypts = after.decrypts - before.decrypts;
    t.ops.hom_adds = after.hom_adds - before.hom_adds;
    t.ops.scalar_muls = after.scalar_muls - before.scalar_muls;
    t.ms = TimePerCall(fn, kProbeSeconds) * 1e3;
    span.Counter("ms_per_call", t.ms);
    span.Counter("encrypts_per_call", static_cast<double>(t.ops.encrypts));
    span.Counter("decrypts_per_call", static_cast<double>(t.ops.decrypts));
    span.Counter("hom_adds_per_call", static_cast<double>(t.ops.hom_adds));
    span.Counter("scalar_muls_per_call",
                 static_cast<double>(t.ops.scalar_muls));
    return t;
  };
  const auto per_op = [](const Timing& t, uint64_t count) {
    return count == 0 ? 0.0 : t.ms / static_cast<double>(count);
  };

  // Packed-sum path: two parties' gradients, aggregated and decrypted.
  const std::vector<double> va = UniformValues(rng, kPackedDim);
  const std::vector<double> vb = UniformValues(rng, kPackedDim);
  EncVec ea, eb, esum;
  std::vector<double> dsum;
  const Timing enc_values = time_call(
      "core.EncryptValues", [&] { ea = he.EncryptValues(va).value(); });
  eb = he.EncryptValues(vb).value();
  const Timing add_cipher =
      time_call("core.AddCipher", [&] { esum = he.AddCipher(ea, eb).value(); });
  const Timing dec_values = time_call(
      "core.DecryptValues", [&] { dsum = he.DecryptValues(esum).value(); });
  std::vector<double> want_sum(kPackedDim);
  for (size_t i = 0; i < kPackedDim; ++i) want_sum[i] = va[i] + vb[i];
  ledger->Check(Close(dsum, want_sum, 1e-6),
                "core packed-sum replay decrypts to a + b");

  // Fixed-point path: per-instance gradients, bucket sums, cipher-space
  // compression, decryption.
  const std::vector<double> g = UniformValues(rng, kFpRows);
  std::vector<std::vector<uint32_t>> groups(kFpFeatures * kFpBins);
  std::vector<double> want_hist(groups.size(), 0.0);
  for (uint32_t i = 0; i < kFpRows; ++i) {
    for (size_t f = 0; f < kFpFeatures; ++f) {
      const size_t k = f * kFpBins + rng.NextBelow(kFpBins);
      groups[k].push_back(i);
      want_hist[k] += g[i];
    }
  }
  EncVec eg, hist, packed;
  std::vector<double> dhist;
  const Timing enc_fp = time_call(
      "core.EncryptFixedPoint", [&] { eg = he.EncryptFixedPoint(g).value(); });
  const Timing sums = time_call("core.SelectiveSums", [&] {
    hist = he.SelectiveSums(eg, groups).value();
  });
  const Timing compress = time_call("core.CompressForTransmission", [&] {
    packed = he.CompressForTransmission(hist).value();
  });
  const Timing dec_fp = time_call("core.DecryptFixedPoint", [&] {
    dhist = he.DecryptFixedPoint(packed).value();
  });
  ledger->Check(Close(dhist, want_hist, fp_tol * kFpRows),
                "core fixed-point replay decrypts to the bucket sums");

  out->push_back({"core.encrypt_values_ms", enc_values.ms, "ms"});
  out->push_back({"core.add_cipher_ms", add_cipher.ms, "ms"});
  out->push_back({"core.decrypt_values_ms", dec_values.ms, "ms"});
  out->push_back({"core.encrypt_fp_ms", enc_fp.ms, "ms"});
  out->push_back({"core.selective_sums_ms", sums.ms, "ms"});
  out->push_back({"core.compress_ms", compress.ms, "ms"});
  out->push_back({"core.decrypt_fp_ms", dec_fp.ms, "ms"});

  // Replayed per-op cost x the run's op counts, on the layout the cell's
  // trainer uses (packed-sum for the horizontal models, fixed-point for the
  // vertical ones); scalar multiplies are priced from the compression call.
  const bool packed_layout =
      cell.model == flb::core::FlModelKind::kHomoLr ||
      cell.model == flb::core::FlModelKind::kHomoNn;
  const Timing& enc = packed_layout ? enc_values : enc_fp;
  const Timing& dec = packed_layout ? dec_values : dec_fp;
  const Timing& add = packed_layout ? add_cipher : sums;
  const double he_ms =
      per_op(enc, enc.ops.encrypts) * run.ops.encrypts +
      per_op(dec, dec.ops.decrypts) * run.ops.decrypts +
      per_op(add, add.ops.hom_adds) * run.ops.hom_adds +
      per_op(compress, compress.ops.scalar_muls) * run.ops.scalar_muls;
  const double he_share = run.train_s > 0 ? he_ms * 1e-3 / run.train_s : 0.0;
  out->push_back({"core.he_wall_share", he_share, "ratio"});
  spans->End(layer);
}

}  // namespace perfbench
