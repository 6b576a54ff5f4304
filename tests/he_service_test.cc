// Tests for the HeService facade: packed-sum and fixed-point paths, real vs
// modeled execution agreement, engine traits, and cipher-space compression.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/core/he_service.h"
#include "src/core/transport.h"
#include "src/gpusim/device.h"

namespace flb::core {
namespace {

std::shared_ptr<gpusim::Device> MakeDevice(SimClock* clock,
                                           bool branch_combining = true) {
  return std::make_shared<gpusim::Device>(gpusim::DeviceSpec::Rtx3090(), clock,
                                          branch_combining);
}

HeServiceOptions SmallRealOptions(EngineKind engine) {
  HeServiceOptions opts;
  opts.engine = engine;
  opts.key_bits = 256;  // small keys: tests run real crypto
  opts.r_bits = 14;     // slot = 16 bits at 4 participants
  opts.participants = 4;
  opts.modeled = false;
  opts.frac_bits = 16;
  return opts;
}

class HeServiceEngineTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    device_ = MakeDevice(&clock_, TraitsFor(GetParam()).branch_combining);
    auto service =
        HeService::Create(SmallRealOptions(GetParam()), &clock_, device_);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    he_ = std::move(service).value();
  }

  SimClock clock_;
  std::shared_ptr<gpusim::Device> device_;
  std::unique_ptr<HeService> he_;
};

TEST_P(HeServiceEngineTest, PackedSumRoundTrip) {
  std::vector<double> values{0.5, -0.25, 0.125, -1.0, 1.0, 0.0, 0.75};
  auto enc = he_->EncryptValues(values).value();
  EXPECT_EQ(enc.count, values.size());
  auto dec = he_->DecryptValues(enc).value();
  ASSERT_EQ(dec.size(), values.size());
  const double tol = he_->quantizer().MaxAbsoluteError();
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(dec[i], values[i], tol);
  }
}

TEST_P(HeServiceEngineTest, PackedAggregationAcrossParties) {
  std::vector<double> a{0.1, -0.2, 0.3}, b{0.4, 0.5, -0.6}, c{-0.7, 0.1, 0.2};
  auto ea = he_->EncryptValues(a).value();
  auto eb = he_->EncryptValues(b).value();
  auto sum = he_->AddCipher(ea, eb).value();
  EXPECT_EQ(sum.contributors, 2);
  sum = he_->AddPlainValues(sum, c).value();
  EXPECT_EQ(sum.contributors, 3);
  auto dec = he_->DecryptValues(sum).value();
  const double tol = 3 * he_->quantizer().MaxAbsoluteError();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(dec[i], a[i] + b[i] + c[i], tol);
  }
}

TEST_P(HeServiceEngineTest, ContributorHeadroomEnforced) {
  std::vector<double> v{0.1};
  auto e1 = he_->EncryptValues(v).value();
  auto e2 = he_->EncryptValues(v).value();
  auto s2 = he_->AddCipher(e1, e2).value();
  auto s4 = he_->AddCipher(s2, s2).value();  // 4 contributors: at the limit
  EXPECT_EQ(s4.contributors, 4);
  EXPECT_TRUE(he_->AddCipher(s4, e1).status().IsOutOfRange());
  EXPECT_TRUE(he_->AddPlainValues(s4, v).status().IsOutOfRange());
}

TEST_P(HeServiceEngineTest, FixedPointScalarMulAndAdd) {
  std::vector<double> values{0.5, -0.75, 1.5};
  auto enc = he_->EncryptFixedPoint(values).value();
  auto scaled = he_->ScalarMulFixedPoint(enc, {2.0, -1.0, 0.5}).value();
  EXPECT_EQ(scaled.scale_muls, 1);
  auto dec = he_->DecryptFixedPoint(scaled).value();
  EXPECT_NEAR(dec[0], 1.0, 1e-3);
  EXPECT_NEAR(dec[1], 0.75, 1e-3);
  EXPECT_NEAR(dec[2], 0.75, 1e-3);

  auto doubled = he_->AddFixedPoint(scaled, scaled).value();
  auto dec2 = he_->DecryptFixedPoint(doubled).value();
  EXPECT_NEAR(dec2[0], 2.0, 1e-3);
}

TEST_P(HeServiceEngineTest, WeightedAndSelectiveSums) {
  std::vector<double> values{1.0, -0.5, 0.25, 2.0};
  auto enc = he_->EncryptFixedPoint(values).value();

  std::vector<std::vector<HeService::WeightedTerm>> groups{
      {{0, 2.0}, {1, 4.0}},          // 2*1 + 4*(-0.5) = 0
      {{2, 1.0}, {3, 0.5}, {0, 1.0}},  // 0.25 + 1 + 1 = 2.25
      {}};                           // empty -> 0
  auto sums = he_->WeightedSums(enc, groups).value();
  auto dec = he_->DecryptFixedPoint(sums).value();
  ASSERT_EQ(dec.size(), 3u);
  EXPECT_NEAR(dec[0], 0.0, 1e-3);
  EXPECT_NEAR(dec[1], 2.25, 1e-3);
  EXPECT_NEAR(dec[2], 0.0, 1e-3);

  std::vector<std::vector<uint32_t>> sel{{0, 3}, {1, 2}};
  auto ssums = he_->SelectiveSums(enc, sel).value();
  auto sdec = he_->DecryptFixedPoint(ssums).value();
  EXPECT_NEAR(sdec[0], 3.0, 1e-3);
  EXPECT_NEAR(sdec[1], -0.25, 1e-3);
}

TEST_P(HeServiceEngineTest, ErrorPaths) {
  std::vector<double> v{0.5};
  EXPECT_TRUE(he_->EncryptValues({}).status().IsInvalidArgument());
  auto packed = he_->EncryptValues(v).value();
  auto fixed = he_->EncryptFixedPoint(v).value();
  // Layout confusion rejected.
  EXPECT_FALSE(he_->AddCipher(packed, fixed).ok());
  EXPECT_FALSE(he_->DecryptValues(fixed).ok());
  EXPECT_FALSE(he_->DecryptFixedPoint(packed).ok());
  EXPECT_FALSE(he_->ScalarMulFixedPoint(fixed, {1.0, 2.0}).ok());
  std::vector<std::vector<HeService::WeightedTerm>> bad{{{5, 1.0}}};
  EXPECT_TRUE(he_->WeightedSums(fixed, bad).status().IsOutOfRange());
}

TEST_P(HeServiceEngineTest, EmptyGroupSumsToUncountedIdentity) {
  // An empty group is the homomorphic zero E(0; r = 1), the ciphertext 1:
  // nothing is encrypted, counted or charged for it.
  auto enc = he_->EncryptFixedPoint({1.0, -0.5}).value();
  const HeOpCounts before = he_->op_counts();
  const double he_seconds = clock_.HeSeconds();
  std::vector<std::vector<HeService::WeightedTerm>> weighted{{}, {}};
  std::vector<std::vector<uint32_t>> selective{{}, {}};
  auto wsums = he_->WeightedSums(enc, weighted).value();
  auto ssums = he_->SelectiveSums(enc, selective).value();
  for (const EncVec* sums : {&wsums, &ssums}) {
    ASSERT_EQ(sums->data.size(), 2u);
    for (const BigInt& c : sums->data) EXPECT_TRUE(c == BigInt(uint64_t{1}));
    const std::vector<double> dec = he_->DecryptFixedPoint(*sums).value();
    for (double v : dec) EXPECT_EQ(v, 0.0);
  }
  EXPECT_EQ(he_->op_counts().encrypts, before.encrypts);
  EXPECT_EQ(he_->op_counts().hom_adds, before.hom_adds);
  EXPECT_EQ(he_->op_counts().scalar_muls, before.scalar_muls);
  EXPECT_GT(clock_.HeSeconds(), he_seconds);  // only the two decrypts
  EXPECT_EQ(he_->op_counts().decrypts, before.decrypts + 4);
}

INSTANTIATE_TEST_SUITE_P(Engines, HeServiceEngineTest,
                         ::testing::Values(EngineKind::kFate,
                                           EngineKind::kHaflo,
                                           EngineKind::kFlBooster,
                                           EngineKind::kFlBoosterNoGhe,
                                           EngineKind::kFlBoosterNoBc));

TEST(HeServiceTest, PackSlotsReflectBcTrait) {
  SimClock clock;
  auto device = MakeDevice(&clock);
  auto bc = HeService::Create(SmallRealOptions(EngineKind::kFlBooster), &clock,
                              device)
                .value();
  auto no_bc = HeService::Create(SmallRealOptions(EngineKind::kHaflo), &clock,
                                 device)
                   .value();
  EXPECT_GT(bc->pack_slots(), 1);
  EXPECT_EQ(no_bc->pack_slots(), 1);
  // Same logical vector, fewer ciphertexts and fewer wire bytes under BC.
  std::vector<double> values(40, 0.25);
  auto enc_bc = bc->EncryptValues(values).value();
  auto enc_plain = no_bc->EncryptValues(values).value();
  EXPECT_LT(enc_bc.num_ciphertexts(), enc_plain.num_ciphertexts());
  EXPECT_LT(bc->WireBytes(enc_bc), no_bc->WireBytes(enc_plain));
}

TEST(HeServiceTest, CipherCompressionRoundTrip) {
  SimClock clock;
  auto device = MakeDevice(&clock);
  HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
  opts.fp_compress_slot_bits = 40;  // 256-bit key -> 6 slots
  auto he = HeService::Create(opts, &clock, device).value();

  std::vector<double> values{0.5, -1.25, 2.0, -0.125, 0.75, 3.5, -2.25, 0.0};
  auto enc = he->EncryptFixedPoint(values).value();
  auto packed = he->CompressForTransmission(enc).value();
  EXPECT_LT(packed.num_ciphertexts(), enc.num_ciphertexts());
  EXPECT_GT(packed.slots_per_cipher, 1);
  auto dec = he->DecryptFixedPoint(packed).value();
  ASSERT_EQ(dec.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(dec[i], values[i], 1e-3) << i;
  }
}

TEST(HeServiceTest, CipherCompressionMatchesPerSlotFormula) {
  // The Horner fold must give the very group elements of the direct
  // formula prod_j E(v_j + 2^(sb-1))^(2^(j*sb)) (residues sum_j (v_j +
  // 2^(sb-1)) * 2^(j*sb) mod n when modeled), so compressed ciphertexts are
  // bit-identical to the per-slot shift-and-add.
  for (const bool modeled : {false, true}) {
    SimClock clock;
    auto device = MakeDevice(&clock);
    HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
    opts.fp_compress_slot_bits = 40;  // 256-bit key -> 6 slots
    opts.modeled = modeled;
    auto he = HeService::Create(opts, &clock, device).value();
    std::vector<double> values{0.5, -1.25, 2.0, -0.125, 0.75,
                               3.5, -2.25, 0.0, 1.5};
    auto enc = he->EncryptFixedPoint(values).value();
    auto packed = he->CompressForTransmission(enc).value();
    const int sb = packed.fp_slot_bits;
    const size_t slots = static_cast<size_t>(packed.slots_per_cipher);
    ASSERT_EQ(sb, 40);
    ASSERT_EQ(packed.num_ciphertexts(), 2u);

    const BigInt& n = he->modulus();
    crypto::PaillierPublicKey pub;
    pub.key_bits = opts.key_bits;
    pub.n = n;
    pub.g = BigInt::Add(n, BigInt(uint64_t{1}));
    pub.n_squared = BigInt::Mul(n, n);
    auto ctx = crypto::PaillierContext::CreatePublic(pub).value();
    const BigInt offset = BigInt::PowerOfTwo(sb - 1);
    std::vector<BigInt> expected;
    for (size_t base = 0; base < values.size(); base += slots) {
      BigInt acc;
      for (size_t j = 0; j < slots && base + j < values.size(); ++j) {
        const BigInt& c = enc.data[base + j];
        const int shift = static_cast<int>(j) * sb;
        if (modeled) {
          const BigInt w = BigInt::Add(c, offset) % n;
          acc = BigInt::Add(acc, BigInt::ShiftLeft(w, shift) % n) % n;
          continue;
        }
        const BigInt w = ctx.AddPlain(c, offset).value();
        const BigInt term =
            ctx.ScalarMul(w, BigInt::PowerOfTwo(shift)).value();
        acc = j == 0 ? term : ctx.Add(acc, term).value();
      }
      expected.push_back(std::move(acc));
    }
    EXPECT_TRUE(packed.data == expected) << "modeled=" << modeled;
  }
}

TEST(HeServiceTest, CipherCompressionIsNoOpWithoutBc) {
  SimClock clock;
  auto device = MakeDevice(&clock);
  auto he = HeService::Create(SmallRealOptions(EngineKind::kFlBoosterNoBc),
                              &clock, device)
                .value();
  std::vector<double> values{0.5, -1.25, 2.0};
  auto enc = he->EncryptFixedPoint(values).value();
  auto same = he->CompressForTransmission(enc).value();
  EXPECT_EQ(same.num_ciphertexts(), enc.num_ciphertexts());
  EXPECT_EQ(same.slots_per_cipher, 1);
}

TEST(HeServiceTest, ModeledMatchesRealValues) {
  // The modeled path must produce numerically identical decode results to
  // the real path (quantization is the only loss in both).
  SimClock real_clock, model_clock;
  auto real_dev = MakeDevice(&real_clock);
  auto model_dev = MakeDevice(&model_clock);
  HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
  auto real = HeService::Create(opts, &real_clock, real_dev).value();
  opts.modeled = true;
  auto modeled = HeService::Create(opts, &model_clock, model_dev).value();

  std::vector<double> a{0.5, -0.25, 0.75}, b{-0.5, 0.5, 0.125};
  auto ra = real->EncryptValues(a).value();
  auto rb = real->EncryptValues(b).value();
  auto rsum = real->DecryptValues(real->AddCipher(ra, rb).value()).value();
  auto ma = modeled->EncryptValues(a).value();
  auto mb = modeled->EncryptValues(b).value();
  auto msum =
      modeled->DecryptValues(modeled->AddCipher(ma, mb).value()).value();
  ASSERT_EQ(rsum.size(), msum.size());
  for (size_t i = 0; i < rsum.size(); ++i) {
    EXPECT_DOUBLE_EQ(rsum[i], msum[i]) << i;
  }
  // And the modeled run charges exactly the real HE time and op counts:
  // the modes differ only in the arithmetic body.
  EXPECT_EQ(model_clock.HeSeconds(), real_clock.HeSeconds());
  EXPECT_EQ(modeled->op_counts().encrypts, real->op_counts().encrypts);
  EXPECT_EQ(modeled->op_counts().hom_adds, real->op_counts().hom_adds);
  EXPECT_EQ(modeled->op_counts().decrypts, real->op_counts().decrypts);
}

TEST(HeServiceTest, ModeledFixedPointMatchesReal) {
  SimClock c1, c2;
  auto d1 = MakeDevice(&c1);
  auto d2 = MakeDevice(&c2);
  HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
  auto real = HeService::Create(opts, &c1, d1).value();
  opts.modeled = true;
  auto modeled = HeService::Create(opts, &c2, d2).value();

  std::vector<double> v{0.5, -0.75, 1.25, 2.0};
  std::vector<std::vector<HeService::WeightedTerm>> groups{
      {{0, 1.5}, {2, -2.0}}, {{1, 3.0}, {3, 0.25}}};
  auto rdec =
      real->DecryptFixedPoint(
              real->WeightedSums(real->EncryptFixedPoint(v).value(), groups)
                  .value())
          .value();
  auto mdec = modeled
                  ->DecryptFixedPoint(modeled
                                          ->WeightedSums(
                                              modeled->EncryptFixedPoint(v)
                                                  .value(),
                                              groups)
                                          .value())
                  .value();
  ASSERT_EQ(rdec.size(), mdec.size());
  for (size_t i = 0; i < rdec.size(); ++i) {
    EXPECT_EQ(rdec[i], mdec[i]) << i;
  }
}

TEST(HeServiceTest, OpCountsAndThroughputInputs) {
  SimClock clock;
  auto device = MakeDevice(&clock);
  auto he = HeService::Create(SmallRealOptions(EngineKind::kFlBooster), &clock,
                              device)
                .value();
  std::vector<double> values(30, 0.5);
  auto enc = he->EncryptValues(values).value();
  he->DecryptValues(enc).value();
  EXPECT_EQ(he->op_counts().values_encrypted, 30u);
  EXPECT_EQ(he->op_counts().values_decrypted, 30u);
  EXPECT_EQ(he->op_counts().encrypts, enc.num_ciphertexts());
  EXPECT_GT(clock.HeSeconds(), 0.0);
  he->ResetOpCounts();
  EXPECT_EQ(he->op_counts().encrypts, 0u);
}

TEST(HeServiceTest, CreateValidation) {
  SimClock clock;
  HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
  // GPU engine without a device.
  EXPECT_FALSE(HeService::Create(opts, &clock, nullptr).ok());
  // Bad key size.
  opts.key_bits = 100;
  EXPECT_FALSE(HeService::Create(opts, &clock, MakeDevice(&clock)).ok());
}

TEST(HeServiceStreams, TraitsCarryStreamCounts) {
  EXPECT_EQ(TraitsFor(EngineKind::kFlBooster).gpu_streams, 4);
  EXPECT_EQ(TraitsFor(EngineKind::kFlBoosterNoBc).gpu_streams, 4);
  EXPECT_EQ(TraitsFor(EngineKind::kFate).gpu_streams, 1);
  EXPECT_EQ(TraitsFor(EngineKind::kHaflo).gpu_streams, 1);
  EXPECT_EQ(TraitsFor(EngineKind::kFlBoosterNoGhe).gpu_streams, 1);
}

TEST(HeServiceStreams, OptionsOverrideEngineDefault) {
  // Every engine x every knob sentinel, resolved through HeService::Create:
  // 0 / -1 take the engine's value, anything else overrides it.
  struct EngineRow {
    EngineKind engine;
    bool gpu;
    int streams;  // engine default
    bool bc;      // engine trait
  };
  const EngineRow engines[] = {
      {EngineKind::kFate, false, 1, false},
      {EngineKind::kHaflo, true, 1, false},
      {EngineKind::kFlBooster, true, 4, true},
      {EngineKind::kFlBoosterNoGhe, false, 1, true},
      {EngineKind::kFlBoosterNoBc, true, 4, false},
  };
  struct Override {
    const char* name;
    int gpu_streams;
    int chunks;
    int use_bc;
  };
  const Override overrides[] = {
      {"none", 0, 0, -1},
      {"gpu_streams=2", 2, 0, -1},
      {"ghe_chunks_per_stream=3", 0, 3, -1},
      {"use_bc=0", 0, 0, 0},
      {"use_bc=1", 0, 0, 1},
  };
  for (const EngineRow& row : engines) {
    for (const Override& o : overrides) {
      SCOPED_TRACE(EngineName(row.engine) + " / " + o.name);
      SimClock clock;
      HeServiceOptions opts = SmallRealOptions(row.engine);
      opts.gpu_streams = o.gpu_streams;
      opts.ghe_chunks_per_stream = o.chunks;
      opts.use_bc = o.use_bc;
      auto he = HeService::Create(opts, &clock, MakeDevice(&clock));
      ASSERT_TRUE(he.ok()) << he.status().ToString();
      const HeService& service = *he.value();

      EXPECT_EQ(service.traits().use_bc, o.use_bc < 0 ? row.bc : o.use_bc == 1);
      EXPECT_EQ(service.pack_slots() > 1, service.traits().use_bc);
      if (!row.gpu) {
        // CPU engines have no GPU HE engine to configure.
        EXPECT_EQ(service.ghe_engine(), nullptr);
        continue;
      }
      ASSERT_NE(service.ghe_engine(), nullptr);
      const ghe::GheConfig& config = service.ghe_engine()->config();
      EXPECT_EQ(config.streams,
                o.gpu_streams > 0 ? o.gpu_streams : row.streams);
      EXPECT_EQ(config.chunks_per_stream, o.chunks > 0 ? o.chunks : 1);
    }
  }
}

TEST(HeServiceStreams, MultiStreamNeverChargesMoreAndStaysBitExact) {
  // The adaptive engine only chunks when the modeled timeline is strictly
  // faster, so the 4-stream service can never charge more HE time than the
  // forced-serial one — and the ciphertext math is identical either way.
  SimClock serial_clock, async_clock;
  auto serial_dev = MakeDevice(&serial_clock);
  auto async_dev = MakeDevice(&async_clock);
  HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
  opts.gpu_streams = 1;
  auto serial = HeService::Create(opts, &serial_clock, serial_dev).value();
  opts.gpu_streams = 4;
  auto async = HeService::Create(opts, &async_clock, async_dev).value();

  std::vector<double> a(512), b(512);
  for (int i = 0; i < 512; ++i) {
    a[i] = 0.001 * i - 0.2;
    b[i] = 0.25 - 0.0005 * i;
  }
  auto sdec =
      serial
          ->DecryptValues(serial
                              ->AddCipher(serial->EncryptValues(a).value(),
                                          serial->EncryptValues(b).value())
                              .value())
          .value();
  auto adec =
      async
          ->DecryptValues(async
                              ->AddCipher(async->EncryptValues(a).value(),
                                          async->EncryptValues(b).value())
                              .value())
          .value();
  ASSERT_EQ(sdec.size(), adec.size());
  for (size_t i = 0; i < sdec.size(); ++i) {
    EXPECT_DOUBLE_EQ(sdec[i], adec[i]) << i;
  }
  EXPECT_LE(async_clock.HeSeconds(), serial_clock.HeSeconds() + 1e-12);
}

TEST(HeServiceTest, TransportRoundTrip) {
  SimClock clock;
  net::Network network(net::LinkSpec::GigabitEthernet(), &clock);
  auto device = MakeDevice(&clock);
  auto he = HeService::Create(SmallRealOptions(EngineKind::kFlBooster), &clock,
                              device)
                .value();
  std::vector<double> values{0.5, -0.25, 0.75, 0.125};
  auto enc = he->EncryptValues(values).value();
  ASSERT_TRUE(SendEncVec(&network, *he, "alice", "bob", "grad", enc).ok());
  // Wire bytes reflect the real ciphertext footprint.
  EXPECT_GE(network.stats().bytes, he->WireBytes(enc));
  auto received = RecvEncVec(&network, "bob", "grad").value();
  EXPECT_EQ(received.count, enc.count);
  EXPECT_EQ(received.contributors, enc.contributors);
  auto dec = he->DecryptValues(received).value();
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(dec[i], values[i], he->quantizer().MaxAbsoluteError());
  }
}

}  // namespace
}  // namespace flb::core
