#include "src/core/he_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace flb::core {

ResolvedEngine ResolveEngine(const HeServiceOptions& options) {
  ResolvedEngine out;
  out.traits = TraitsFor(options.engine);
  out.traits.use_bc =
      options.use_bc < 0 ? out.traits.use_bc : options.use_bc != 0;
  out.ghe.words_per_thread = out.traits.words_per_thread;
  out.ghe.streams =
      options.gpu_streams > 0 ? options.gpu_streams : out.traits.gpu_streams;
  if (options.ghe_chunks_per_stream > 0) {
    out.ghe.chunks_per_stream = options.ghe_chunks_per_stream;
  }
  return out;
}

HeService::HeService(const HeServiceOptions& options,
                     const EngineTraits& traits, SimClock* clock,
                     std::shared_ptr<gpusim::Device> device,
                     codec::Quantizer quantizer)
    : options_(options),
      traits_(traits),
      clock_(clock),
      device_(std::move(device)),
      quantizer_(std::move(quantizer)),
      rng_(options.seed) {}

Result<std::unique_ptr<HeService>> HeService::Create(
    const HeServiceOptions& options, SimClock* clock,
    std::shared_ptr<gpusim::Device> device) {
  if (options.key_bits < 64 || options.key_bits % 64 != 0) {
    return Status::InvalidArgument(
        "HeService: key_bits must be a positive multiple of 64");
  }
  const ResolvedEngine engine = ResolveEngine(options);
  if (engine.traits.gpu_he && device == nullptr) {
    return Status::InvalidArgument(
        "HeService: engine '" + EngineName(options.engine) +
        "' runs HE on the GPU but no device was supplied");
  }

  codec::QuantizerConfig qcfg;
  qcfg.alpha = options.alpha;
  qcfg.r_bits = options.r_bits;
  qcfg.participants = options.participants;
  FLB_ASSIGN_OR_RETURN(codec::Quantizer quantizer,
                       codec::Quantizer::Create(qcfg));

  // The resolved traits carry the effective BC flag, so every consumer
  // (pack_slots, CompressForTransmission, the encrypt paths) sees one value.
  auto service = std::unique_ptr<HeService>(new HeService(
      options, engine.traits, clock, std::move(device), std::move(quantizer)));

  // Host execution pool: an explicit size makes the service own a private
  // pool; otherwise everyone shares the process-global one.
  if (options.host_threads > 0) {
    service->owned_pool_ =
        std::make_unique<common::ThreadPool>(options.host_threads);
    service->host_pool_ = service->owned_pool_.get();
  } else {
    service->host_pool_ = &common::ThreadPool::Global();
  }

  if (engine.traits.gpu_he) {
    ghe::GheConfig gcfg = engine.ghe;
    gcfg.host_pool = service->host_pool_;
    service->ghe_ = std::make_unique<ghe::GheEngine>(service->device_, gcfg);
  }
  if (engine.traits.use_bc) {
    FLB_ASSIGN_OR_RETURN(
        auto compressor,
        codec::BatchCompressor::Create(service->quantizer_, options.key_bits));
    service->compressor_.emplace(std::move(compressor));
  }

  if (options.modeled) {
    // Synthetic modulus: the modeled path never performs real crypto, it
    // only needs a key_bits-wide odd modulus for residue arithmetic.
    BigInt n = BigInt::Random(service->rng_, options.key_bits);
    auto w = n.ToFixedWords(options.key_bits / 32);
    w[0] |= 1u;
    w.back() |= 0x80000000u;
    service->n_ = BigInt::FromWords(std::move(w));
  } else {
    crypto::PaillierOptions popts;
    popts.use_fixed_width_kernels = options.use_fixed_width_kernels;
    FLB_ASSIGN_OR_RETURN(auto keys,
                         crypto::PaillierKeyGen(options.key_bits,
                                                service->rng_, popts));
    service->n_ = keys.pub.n;
    FLB_ASSIGN_OR_RETURN(auto ctx,
                         crypto::PaillierContext::Create(keys, popts));
    service->paillier_.emplace(std::move(ctx));
  }
  service->n_squared_ = BigInt::Mul(service->n_, service->n_);

  FLB_ASSIGN_OR_RETURN(
      auto fp, codec::FixedPointCodec::Create(service->n_, options.frac_bits));
  service->fp_codec_ = std::make_unique<codec::FixedPointCodec>(std::move(fp));
  return service;
}

int HeService::pack_slots() const {
  return traits_.use_bc ? compressor_->slots_per_plaintext() : 1;
}

size_t HeService::CiphertextWords() const {
  return static_cast<size_t>(options_.key_bits) * 2 / 32;
}

size_t HeService::WireBytes(const EncVec& c) const {
  // Fixed-width ciphertexts plus the transport header (layout/count/slot
  // metadata — see core::SendEncVec).
  return c.data.size() * CiphertextWords() * 4 + 48;
}

int HeService::fp_compress_slot_bits() const {
  if (options_.fp_compress_slot_bits > 0) {
    return options_.fp_compress_slot_bits;
  }
  return std::min(2 * options_.frac_bits + 14, 62);
}

Status HeService::CheckLayout(const EncVec& v, EncLayout expected,
                              const char* op) const {
  if (v.layout != expected) {
    return Status::InvalidArgument(std::string(op) +
                                   ": EncVec has the wrong layout");
  }
  if (v.modeled != options_.modeled) {
    return Status::InvalidArgument(
        std::string(op) + ": EncVec execution mode does not match service");
  }
  return Status::OK();
}

Status HeService::ChargeBatch(const char* kind, size_t count,
                              uint64_t limb_ops_per_elt, size_t bytes_in,
                              size_t bytes_out) {
  if (count == 0) return Status::OK();
  const obs::Track track =
      obs::TraceRecorder::Global().RegisterTrack("he", "batches");
  if (!traits_.gpu_he) {
    // Charge + span in one step: the span's extent is exactly the simulated
    // CPU-HE time the cost model adds.
    ChargeSpan(clock_, CostKind::kCpuHe,
               options_.cpu_cost.SecondsFor(count, limb_ops_per_elt), track,
               kind, "he", {obs::Arg("count", static_cast<uint64_t>(count))});
    return Status::OK();
  }
  // The engine prices the batch with the launch geometry of the kernel and,
  // with streams > 1, the chunked copy/compute overlap. The device traces
  // the kernel and PCIe spans; this span shows the whole batch on the HE
  // track.
  obs::ScopedSpan span(clock_, track, kind, "he");
  span.AddArg(obs::Arg("count", static_cast<int64_t>(count)));
  return ghe_
      ->ModelBatch(kind, static_cast<int64_t>(count), CiphertextWords(),
                   limb_ops_per_elt, bytes_in, bytes_out)
      .status();
}

// ---------------------------------------------------------------------------
// Arithmetic seam
// ---------------------------------------------------------------------------

Result<std::vector<BigInt>> HeService::EncryptBody(
    std::vector<BigInt> plains) {
  if (options_.modeled) return plains;
  return paillier_->EncryptBatch(plains, rng_, host_pool_);
}

Result<std::vector<BigInt>> HeService::DecryptBody(
    const std::vector<BigInt>& cs) {
  if (options_.modeled) return cs;
  return paillier_->DecryptBatch(cs, host_pool_);
}

Result<std::vector<BigInt>> HeService::AddBody(std::vector<BigInt> a,
                                               const std::vector<BigInt>& b) {
  if (!options_.modeled) return paillier_->AddBatch(a, b, host_pool_);
  for (size_t i = 0; i < a.size(); ++i) a[i] = BigInt::Add(a[i], b[i]) % n_;
  return a;
}

Result<std::vector<BigInt>> HeService::AddPlainBody(
    std::vector<BigInt> cs, const std::vector<BigInt>& ms) {
  if (!options_.modeled) return paillier_->AddPlainBatch(cs, ms, host_pool_);
  for (size_t i = 0; i < cs.size(); ++i) {
    cs[i] = BigInt::Add(cs[i], ms[i]) % n_;
  }
  return cs;
}

Result<std::vector<BigInt>> HeService::ScalarMulBody(
    std::vector<BigInt> cs, const std::vector<BigInt>& ks) {
  if (!options_.modeled) return paillier_->ScalarMulBatch(cs, ks, host_pool_);
  for (size_t i = 0; i < cs.size(); ++i) {
    cs[i] = BigInt::Mul(cs[i], ks[i]) % n_;
  }
  return cs;
}

Result<BigInt> HeService::FoldBody(const BigInt& acc, int shift_bits,
                                   const BigInt& x) {
  if (shift_bits > 0) {
    if (options_.modeled) {
      return BigInt::Add(BigInt::ShiftLeft(acc, shift_bits), x) % n_;
    }
    FLB_ASSIGN_OR_RETURN(
        const BigInt shifted,
        paillier_->ScalarMul(acc, BigInt::PowerOfTwo(shift_bits)));
    return FoldBody(shifted, 0, x);
  }
  if (options_.modeled) return BigInt::Add(acc, x) % n_;
  return paillier_->Add(acc, x);
}

BigInt HeService::EmptySum() const {
  return options_.modeled ? BigInt() : BigInt(uint64_t{1});
}

// ---------------------------------------------------------------------------
// Packed-sum path
// ---------------------------------------------------------------------------

Result<std::vector<BigInt>> HeService::EncodePacked(
    const std::vector<double>& values) const {
  if (traits_.use_bc) return compressor_->Pack(values);
  FLB_ASSIGN_OR_RETURN(auto slots, quantizer_.EncodeBatch(values));
  std::vector<BigInt> plains;
  plains.reserve(slots.size());
  for (uint64_t s : slots) plains.emplace_back(s);
  return plains;
}

Result<EncVec> HeService::EncryptValues(const std::vector<double>& values) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::EncryptValues"));
  if (values.empty()) {
    return Status::InvalidArgument("EncryptValues: empty input");
  }
  // Encoding/quantization/packing cost: a handful of float+integer ops per
  // value — "extremely small" per the paper, but accounted for honestly.
  ChargeSpan(clock_, CostKind::kEncoding, values.size() * 4e-9,
             obs::TraceRecorder::Global().RegisterTrack("he", "encode"),
             "he.encode", "encode",
             {obs::Arg("values", static_cast<uint64_t>(values.size()))});
  FLB_ASSIGN_OR_RETURN(std::vector<BigInt> plains, EncodePacked(values));
  const size_t n = plains.size();

  EncVec out;
  out.layout = EncLayout::kPackedSum;
  out.count = values.size();
  out.slots_per_cipher = pack_slots();
  out.contributors = 1;
  out.modeled = options_.modeled;
  FLB_ASSIGN_OR_RETURN(out.data, EncryptBody(std::move(plains)));
  FLB_RETURN_IF_ERROR(ChargeBatch(
      "he.encrypt", n, ghe::PaillierEncryptLimbOps(options_.key_bits),
      CipherBytes(n) / 2, CipherBytes(n)));
  op_cells_.encrypts.fetch_add(n, std::memory_order_relaxed);
  op_cells_.values_encrypted.fetch_add(values.size(),
                                       std::memory_order_relaxed);
  return out;
}

Result<EncVec> HeService::AddCipher(const EncVec& a, const EncVec& b) {
  FLB_RETURN_IF_ERROR(CheckLayout(a, EncLayout::kPackedSum, "AddCipher"));
  FLB_RETURN_IF_ERROR(CheckLayout(b, EncLayout::kPackedSum, "AddCipher"));
  if (a.count != b.count || a.data.size() != b.data.size() ||
      a.slots_per_cipher != b.slots_per_cipher) {
    return Status::InvalidArgument("AddCipher: mismatched vector layouts");
  }
  if (a.contributors + b.contributors > options_.participants) {
    return Status::OutOfRange(
        "AddCipher: contributor total would exceed the quantizer's overflow "
        "headroom");
  }
  const size_t n = a.data.size();
  EncVec out = a;
  out.contributors = a.contributors + b.contributors;
  FLB_ASSIGN_OR_RETURN(out.data, AddBody(std::move(out.data), b.data));
  FLB_RETURN_IF_ERROR(ChargeBatch("he.add", n,
                                  ghe::PaillierAddLimbOps(options_.key_bits),
                                  2 * CipherBytes(n), CipherBytes(n)));
  op_cells_.hom_adds.fetch_add(n, std::memory_order_relaxed);
  return out;
}

Result<EncVec> HeService::AddPlainValues(const EncVec& c,
                                         const std::vector<double>& values) {
  FLB_RETURN_IF_ERROR(CheckLayout(c, EncLayout::kPackedSum, "AddPlainValues"));
  if (values.size() != c.count) {
    return Status::InvalidArgument("AddPlainValues: value count mismatch");
  }
  if (c.contributors + 1 > options_.participants) {
    return Status::OutOfRange("AddPlainValues: overflow headroom exhausted");
  }
  FLB_ASSIGN_OR_RETURN(const std::vector<BigInt> plains, EncodePacked(values));
  if (plains.size() != c.data.size()) {
    return Status::Internal("AddPlainValues: packing layout mismatch");
  }
  const size_t n = plains.size();
  EncVec out = c;
  out.contributors = c.contributors + 1;
  FLB_ASSIGN_OR_RETURN(out.data,
                       AddPlainBody(std::move(out.data), plains));
  FLB_RETURN_IF_ERROR(ChargeBatch(
      "he.add_plain", n, ghe::PaillierAddPlainLimbOps(options_.key_bits),
      CipherBytes(n) + CipherBytes(n) / 2, CipherBytes(n)));
  op_cells_.hom_adds.fetch_add(n, std::memory_order_relaxed);
  return out;
}

Result<std::vector<double>> HeService::DecryptValues(const EncVec& c) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::DecryptValues"));
  FLB_RETURN_IF_ERROR(CheckLayout(c, EncLayout::kPackedSum, "DecryptValues"));
  const size_t n = c.data.size();
  FLB_ASSIGN_OR_RETURN(const std::vector<BigInt> plains, DecryptBody(c.data));
  FLB_RETURN_IF_ERROR(ChargeBatch(
      "he.decrypt", n, ghe::PaillierDecryptLimbOps(options_.key_bits),
      CipherBytes(n), CipherBytes(n) / 2));
  op_cells_.decrypts.fetch_add(n, std::memory_order_relaxed);
  op_cells_.values_decrypted.fetch_add(c.count, std::memory_order_relaxed);
  ChargeSpan(clock_, CostKind::kEncoding, c.count * 4e-9,
             obs::TraceRecorder::Global().RegisterTrack("he", "encode"),
             "he.decode", "encode",
             {obs::Arg("values", static_cast<uint64_t>(c.count))});
  if (traits_.use_bc) {
    return compressor_->Unpack(plains, c.count, c.contributors);
  }
  std::vector<double> out;
  out.reserve(plains.size());
  for (const BigInt& m : plains) {
    FLB_ASSIGN_OR_RETURN(uint64_t slot, m.ToU64());
    FLB_ASSIGN_OR_RETURN(double v,
                         quantizer_.DecodeAggregate(slot, c.contributors));
    out.push_back(v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fixed-point path
// ---------------------------------------------------------------------------

Result<EncVec> HeService::EncryptFixedPoint(const std::vector<double>& values) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::EncryptFixedPoint"));
  if (values.empty()) {
    return Status::InvalidArgument("EncryptFixedPoint: empty input");
  }
  std::vector<BigInt> plains;
  plains.reserve(values.size());
  for (double v : values) {
    FLB_ASSIGN_OR_RETURN(BigInt x, fp_codec_->Encode(v));
    plains.push_back(std::move(x));
  }
  const size_t n = plains.size();
  EncVec out;
  out.layout = EncLayout::kFixedPoint;
  out.count = values.size();
  out.modeled = options_.modeled;
  FLB_ASSIGN_OR_RETURN(out.data, EncryptBody(std::move(plains)));
  FLB_RETURN_IF_ERROR(ChargeBatch(
      "he.fp_encrypt", n, ghe::PaillierEncryptLimbOps(options_.key_bits),
      CipherBytes(n) / 2, CipherBytes(n)));
  op_cells_.encrypts.fetch_add(n, std::memory_order_relaxed);
  op_cells_.values_encrypted.fetch_add(values.size(),
                                       std::memory_order_relaxed);
  return out;
}

Result<EncVec> HeService::AddFixedPoint(const EncVec& a, const EncVec& b) {
  FLB_RETURN_IF_ERROR(CheckLayout(a, EncLayout::kFixedPoint, "AddFixedPoint"));
  FLB_RETURN_IF_ERROR(CheckLayout(b, EncLayout::kFixedPoint, "AddFixedPoint"));
  if (a.count != b.count || a.scale_muls != b.scale_muls ||
      a.slots_per_cipher != 1 || b.slots_per_cipher != 1) {
    return Status::InvalidArgument(
        "AddFixedPoint: operands must be unpacked with matching scales");
  }
  const size_t n = a.data.size();
  EncVec out = a;
  FLB_ASSIGN_OR_RETURN(out.data, AddBody(std::move(out.data), b.data));
  FLB_RETURN_IF_ERROR(ChargeBatch("he.fp_add", n,
                                  ghe::PaillierAddLimbOps(options_.key_bits),
                                  2 * CipherBytes(n), CipherBytes(n)));
  op_cells_.hom_adds.fetch_add(n, std::memory_order_relaxed);
  return out;
}

Result<EncVec> HeService::ScalarMulFixedPoint(
    const EncVec& c, const std::vector<double>& weights) {
  FLB_RETURN_IF_ERROR(
      CheckLayout(c, EncLayout::kFixedPoint, "ScalarMulFixedPoint"));
  if (weights.size() != c.count || c.slots_per_cipher != 1) {
    return Status::InvalidArgument(
        "ScalarMulFixedPoint: weight count mismatch or packed input");
  }
  std::vector<BigInt> ks;
  ks.reserve(weights.size());
  for (double w : weights) {
    FLB_ASSIGN_OR_RETURN(BigInt k, fp_codec_->EncodeScalar(w));
    ks.push_back(std::move(k));
  }
  const size_t n = c.data.size();
  EncVec out = c;
  out.scale_muls = c.scale_muls + 1;
  FLB_ASSIGN_OR_RETURN(out.data, ScalarMulBody(std::move(out.data), ks));
  // Priced at the clipped-weight exponent width (ScalarExpBits), never the
  // width of the scalars at hand, so a batch costs the same in both modes.
  FLB_RETURN_IF_ERROR(ChargeBatch(
      "he.fp_scalar_mul", n,
      ghe::PaillierScalarMulLimbOps(options_.key_bits,
                                    ScalarExpBits(options_.frac_bits)),
      2 * CipherBytes(n), CipherBytes(n)));
  op_cells_.scalar_muls.fetch_add(n, std::memory_order_relaxed);
  return out;
}

Result<EncVec> HeService::SumGroups(
    const char* kind, const EncVec& src,
    const std::vector<std::vector<uint32_t>>& groups) {
  EncVec out;
  out.layout = EncLayout::kFixedPoint;
  out.count = groups.size();
  out.scale_muls = src.scale_muls;
  out.modeled = options_.modeled;
  out.data.reserve(groups.size());
  size_t adds = 0;
  for (const auto& group : groups) {
    if (group.empty()) {
      out.data.push_back(EmptySum());
      continue;
    }
    BigInt acc = src.data[group[0]];
    for (size_t t = 1; t < group.size(); ++t) {
      FLB_ASSIGN_OR_RETURN(acc, FoldBody(acc, 0, src.data[group[t]]));
    }
    adds += group.size() - 1;
    out.data.push_back(std::move(acc));
  }
  FLB_RETURN_IF_ERROR(ChargeBatch(kind, adds,
                                  ghe::PaillierAddLimbOps(options_.key_bits),
                                  2 * CipherBytes(adds), CipherBytes(adds)));
  op_cells_.hom_adds.fetch_add(adds, std::memory_order_relaxed);
  return out;
}

Result<EncVec> HeService::WeightedSums(
    const EncVec& c, const std::vector<std::vector<WeightedTerm>>& groups) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::WeightedSums"));
  FLB_RETURN_IF_ERROR(CheckLayout(c, EncLayout::kFixedPoint, "WeightedSums"));
  if (c.slots_per_cipher != 1) {
    return Status::InvalidArgument("WeightedSums: input must be unpacked");
  }
  // Flatten all terms into one scalar-mul batch, remembering where each
  // group's products land.
  EncVec flat;
  flat.layout = EncLayout::kFixedPoint;
  flat.scale_muls = c.scale_muls;
  flat.modeled = c.modeled;
  std::vector<double> weights;
  std::vector<std::vector<uint32_t>> positions(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const WeightedTerm& term : groups[g]) {
      if (term.index >= c.data.size()) {
        return Status::OutOfRange("WeightedSums: term index out of range");
      }
      positions[g].push_back(static_cast<uint32_t>(flat.data.size()));
      flat.data.push_back(c.data[term.index]);
      weights.push_back(term.weight);
    }
  }
  flat.count = flat.data.size();
  FLB_ASSIGN_OR_RETURN(const EncVec products,
                       ScalarMulFixedPoint(flat, weights));
  return SumGroups("he.fp_fold", products, positions);
}

Result<EncVec> HeService::SelectiveSums(
    const EncVec& c, const std::vector<std::vector<uint32_t>>& groups) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::SelectiveSums"));
  // Selective sums are pure additions (no scalar multiplications), so they
  // do not route through WeightedSums.
  FLB_RETURN_IF_ERROR(CheckLayout(c, EncLayout::kFixedPoint, "SelectiveSums"));
  if (c.slots_per_cipher != 1) {
    return Status::InvalidArgument("SelectiveSums: input must be unpacked");
  }
  for (const auto& group : groups) {
    for (uint32_t index : group) {
      if (index >= c.data.size()) {
        return Status::OutOfRange("SelectiveSums: index out of range");
      }
    }
  }
  return SumGroups("he.selective_sum", c, groups);
}

Result<std::vector<double>> HeService::DecryptFixedPoint(const EncVec& c) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::DecryptFixedPoint"));
  FLB_RETURN_IF_ERROR(
      CheckLayout(c, EncLayout::kFixedPoint, "DecryptFixedPoint"));
  const size_t n = c.data.size();
  FLB_ASSIGN_OR_RETURN(const std::vector<BigInt> plains, DecryptBody(c.data));
  FLB_RETURN_IF_ERROR(ChargeBatch(
      "he.fp_decrypt", n, ghe::PaillierDecryptLimbOps(options_.key_bits),
      CipherBytes(n), CipherBytes(n) / 2));
  op_cells_.decrypts.fetch_add(n, std::memory_order_relaxed);
  op_cells_.values_decrypted.fetch_add(c.count, std::memory_order_relaxed);

  std::vector<double> out;
  out.reserve(c.count);
  if (c.fp_slot_bits == 0) {
    for (const BigInt& m : plains) {
      FLB_ASSIGN_OR_RETURN(double v, fp_codec_->Decode(m, c.scale_muls));
      out.push_back(v);
    }
    return out;
  }
  // Compressed layout: extract slots and remove the sign offset.
  const int sb = c.fp_slot_bits;
  const double scale =
      std::ldexp(1.0, options_.frac_bits * (1 + c.scale_muls));
  const int64_t offset = int64_t{1} << (sb - 1);
  for (size_t i = 0; i < c.count; ++i) {
    const BigInt& z = plains[i / c.slots_per_cipher];
    const int pos = static_cast<int>(i % c.slots_per_cipher);
    const BigInt slot =
        BigInt::TruncateBits(BigInt::ShiftRight(z, pos * sb), sb);
    FLB_ASSIGN_OR_RETURN(uint64_t raw, slot.ToU64());
    out.push_back((static_cast<int64_t>(raw) - offset) / scale);
  }
  return out;
}

Result<EncVec> HeService::CompressForTransmission(const EncVec& c) {
  FLB_RETURN_IF_ERROR(
      CheckLayout(c, EncLayout::kFixedPoint, "CompressForTransmission"));
  if (!traits_.use_bc || c.slots_per_cipher != 1 || c.count <= 1) {
    return c;  // compression disabled or nothing to gain
  }
  if (c.data.size() != c.count) {
    return Status::InvalidArgument(
        "CompressForTransmission: count does not match the ciphertexts");
  }
  const int sb = fp_compress_slot_bits();
  const int slots = std::max(1, (options_.key_bits - 2) / sb);
  if (slots <= 1) return c;

  EncVec out;
  out.layout = EncLayout::kFixedPoint;
  out.count = c.count;
  out.scale_muls = c.scale_muls;
  out.slots_per_cipher = slots;
  out.fp_slot_bits = sb;
  out.modeled = options_.modeled;

  // Horner fold per group from the top slot down, acc = acc^(2^sb) * w_j
  // with w_j = E(v_j + 2^(sb-1)) (the offset makes every slot
  // non-negative), so slot j lands at bit offset j * sb: sb squarings and
  // one multiply per source ciphertext, never a slots*sb-bit
  // exponentiation.
  const BigInt offset = BigInt::PowerOfTwo(sb - 1);
  size_t groups = 0;
  for (size_t base = 0; base < c.count; base += slots, ++groups) {
    const size_t n = std::min<size_t>(slots, c.count - base);
    const auto first = c.data.begin() + base;
    FLB_ASSIGN_OR_RETURN(
        const std::vector<BigInt> w,
        AddPlainBody({first, first + n}, std::vector<BigInt>(n, offset)));
    BigInt acc = w[n - 1];
    for (size_t j = n - 1; j-- > 0;) {
      FLB_ASSIGN_OR_RETURN(acc, FoldBody(acc, sb, w[j]));
    }
    out.data.push_back(std::move(acc));
  }
  // Priced and counted per source ciphertext: one offset add-plain and one
  // scalar-mul (sb squarings + a multiply), plus one add per fold.
  const size_t s2w = CiphertextWords();
  FLB_RETURN_IF_ERROR(ChargeBatch(
      "he.cipher_compress", c.count,
      (static_cast<uint64_t>(sb) + 6) * ghe::MontMulLimbOps(s2w),
      2 * CipherBytes(c.count), CipherBytes(out.data.size())));
  op_cells_.hom_adds.fetch_add(2 * c.count - groups,
                               std::memory_order_relaxed);
  op_cells_.scalar_muls.fetch_add(c.count, std::memory_order_relaxed);
  return out;
}

void HeService::CollectMetrics(std::vector<obs::MetricValue>& out) const {
  const std::string labels = "engine=" + EngineName(options_.engine);
  auto counter = [&](const char* name, uint64_t value) {
    obs::MetricValue m;
    m.name = name;
    m.labels = labels;
    m.type = obs::MetricType::kCounter;
    m.value = static_cast<double>(value);
    out.push_back(std::move(m));
  };
  const HeOpCounts counts = op_counts();
  counter("flb.he.encrypts", counts.encrypts);
  counter("flb.he.decrypts", counts.decrypts);
  counter("flb.he.hom_adds", counts.hom_adds);
  counter("flb.he.scalar_muls", counts.scalar_muls);
  counter("flb.he.values_encrypted", counts.values_encrypted);
  counter("flb.he.values_decrypted", counts.values_decrypted);
  // Fixed-width kernel limb width the n^2 context dispatched to (0 = the
  // generic path — modeled mode, odd widths, or use_fixed_width_kernels
  // off).
  obs::MetricValue m;
  m.name = "flb.he.fixed_kernel_width";
  m.labels = labels;
  m.type = obs::MetricType::kGauge;
  m.value = paillier_.has_value()
                ? static_cast<double>(
                      paillier_->eval().n2_ctx().fixed_kernel_width())
                : 0.0;
  out.push_back(std::move(m));
}

}  // namespace flb::core
