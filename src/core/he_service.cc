#include "src/core/he_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

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

void HeService::ChargeBatch(const char* kind, int64_t count,
                            uint64_t limb_ops_per_elt, size_t bytes_in,
                            size_t bytes_out) {
  if (count <= 0) return;
  if (traits_.gpu_he) {
    // Model the batch through the engine: identical launch geometry to the
    // real path, and with streams > 1 the same chunked copy/compute overlap
    // (charges the clock through the device). The device traces the kernel
    // and PCIe spans; the outer span shows the whole batch on the HE track.
    obs::ScopedSpan span(
        clock_, obs::TraceRecorder::Global().RegisterTrack("he", "batches"),
        kind, "he");
    span.AddArg(obs::Arg("count", count));
    auto result = ghe_->ModelBatch(kind, count, CiphertextWords(),
                                   limb_ops_per_elt, bytes_in, bytes_out);
    FLB_CHECK(result.ok(), result.status().ToString());
  } else {
    ChargeCpu(kind, static_cast<uint64_t>(count), limb_ops_per_elt);
  }
}

void HeService::ChargeCpu(const char* kind, uint64_t count,
                          uint64_t limb_ops_per_elt) {
  // Charge + span in one step: the span's extent is exactly the simulated
  // CPU-HE time the cost model adds.
  ChargeSpan(clock_, CostKind::kCpuHe,
             options_.cpu_cost.SecondsFor(count, limb_ops_per_elt),
             obs::TraceRecorder::Global().RegisterTrack("he", "batches"), kind,
             "he", {obs::Arg("count", count)});
}

// ---------------------------------------------------------------------------
// Packed-sum path
// ---------------------------------------------------------------------------

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
  // Quantize (+ pack).
  std::vector<BigInt> plains;
  if (traits_.use_bc) {
    FLB_ASSIGN_OR_RETURN(plains, compressor_->Pack(values));
  } else {
    FLB_ASSIGN_OR_RETURN(auto slots, quantizer_.EncodeBatch(values));
    plains.reserve(slots.size());
    for (uint64_t s : slots) plains.emplace_back(s);
  }

  EncVec out;
  out.layout = EncLayout::kPackedSum;
  out.count = values.size();
  out.slots_per_cipher = pack_slots();
  out.contributors = 1;
  out.modeled = options_.modeled;

  const int64_t n_cipher = static_cast<int64_t>(plains.size());
  if (options_.modeled) {
    out.data = std::move(plains);
    ChargeBatch("he.encrypt", n_cipher,
                ghe::PaillierEncryptLimbOps(options_.key_bits),
                n_cipher * CiphertextWords() * 2,  // staged plaintexts
                n_cipher * CiphertextWords() * 4);
  } else if (traits_.gpu_he) {
    FLB_ASSIGN_OR_RETURN(out.data,
                         ghe_->PaillierEncrypt(*paillier_, plains, rng_));
  } else {
    FLB_ASSIGN_OR_RETURN(out.data,
                         paillier_->EncryptBatch(plains, rng_, host_pool_));
    ChargeCpu("he.encrypt", plains.size(),
              ghe::PaillierEncryptLimbOps(options_.key_bits));
  }
  op_cells_.encrypts.fetch_add(static_cast<uint64_t>(n_cipher), std::memory_order_relaxed);
  op_cells_.values_encrypted.fetch_add(values.size(), std::memory_order_relaxed);
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
  EncVec out = a;
  out.contributors = a.contributors + b.contributors;
  const int64_t n_cipher = static_cast<int64_t>(a.data.size());
  if (options_.modeled) {
    for (size_t i = 0; i < a.data.size(); ++i) {
      out.data[i] = BigInt::Add(a.data[i], b.data[i]) % n_;
    }
    ChargeBatch("he.add", n_cipher, ghe::PaillierAddLimbOps(options_.key_bits),
                2 * n_cipher * CiphertextWords() * 4,
                n_cipher * CiphertextWords() * 4);
  } else if (traits_.gpu_he) {
    FLB_ASSIGN_OR_RETURN(out.data, ghe_->PaillierAdd(*paillier_, a.data,
                                                     b.data));
  } else {
    FLB_ASSIGN_OR_RETURN(out.data,
                         paillier_->AddBatch(a.data, b.data, host_pool_));
    ChargeCpu("he.add", a.data.size(),
              ghe::PaillierAddLimbOps(options_.key_bits));
  }
  op_cells_.hom_adds.fetch_add(a.data.size(), std::memory_order_relaxed);
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
  std::vector<BigInt> plains;
  if (traits_.use_bc) {
    FLB_ASSIGN_OR_RETURN(plains, compressor_->Pack(values));
  } else {
    FLB_ASSIGN_OR_RETURN(auto slots, quantizer_.EncodeBatch(values));
    plains.reserve(slots.size());
    for (uint64_t s : slots) plains.emplace_back(s);
  }
  if (plains.size() != c.data.size()) {
    return Status::Internal("AddPlainValues: packing layout mismatch");
  }
  EncVec out = c;
  out.contributors = c.contributors + 1;
  const int64_t n_cipher = static_cast<int64_t>(plains.size());
  if (options_.modeled) {
    for (size_t i = 0; i < plains.size(); ++i) {
      out.data[i] = BigInt::Add(c.data[i], plains[i]) % n_;
    }
    ChargeBatch("he.add_plain", n_cipher,
                ghe::PaillierAddPlainLimbOps(options_.key_bits),
                n_cipher * CiphertextWords() * 6,
                n_cipher * CiphertextWords() * 4);
  } else if (traits_.gpu_he) {
    FLB_ASSIGN_OR_RETURN(out.data,
                         ghe_->PaillierAddPlain(*paillier_, c.data, plains));
  } else {
    FLB_ASSIGN_OR_RETURN(out.data,
                         paillier_->AddPlainBatch(c.data, plains, host_pool_));
    ChargeCpu("he.add_plain", plains.size(),
              ghe::PaillierAddPlainLimbOps(options_.key_bits));
  }
  op_cells_.hom_adds.fetch_add(plains.size(), std::memory_order_relaxed);
  return out;
}

Result<std::vector<double>> HeService::DecryptValues(const EncVec& c) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::DecryptValues"));
  FLB_RETURN_IF_ERROR(CheckLayout(c, EncLayout::kPackedSum, "DecryptValues"));
  std::vector<BigInt> plains;
  const int64_t n_cipher = static_cast<int64_t>(c.data.size());
  if (options_.modeled) {
    plains = c.data;
    ChargeBatch("he.decrypt", n_cipher,
                ghe::PaillierDecryptLimbOps(options_.key_bits),
                n_cipher * CiphertextWords() * 4,
                n_cipher * CiphertextWords() * 2);
  } else if (traits_.gpu_he) {
    FLB_ASSIGN_OR_RETURN(plains, ghe_->PaillierDecrypt(*paillier_, c.data));
  } else {
    FLB_ASSIGN_OR_RETURN(plains, paillier_->DecryptBatch(c.data, host_pool_));
    ChargeCpu("he.decrypt", c.data.size(),
              ghe::PaillierDecryptLimbOps(options_.key_bits));
  }
  op_cells_.decrypts.fetch_add(c.data.size(), std::memory_order_relaxed);
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
  EncVec out;
  out.layout = EncLayout::kFixedPoint;
  out.count = values.size();
  out.modeled = options_.modeled;
  const int64_t n_cipher = static_cast<int64_t>(plains.size());
  if (options_.modeled) {
    out.data = std::move(plains);
    ChargeBatch("he.fp_encrypt", n_cipher,
                ghe::PaillierEncryptLimbOps(options_.key_bits),
                n_cipher * CiphertextWords() * 2,
                n_cipher * CiphertextWords() * 4);
  } else if (traits_.gpu_he) {
    FLB_ASSIGN_OR_RETURN(out.data,
                         ghe_->PaillierEncrypt(*paillier_, plains, rng_));
  } else {
    FLB_ASSIGN_OR_RETURN(out.data,
                         paillier_->EncryptBatch(plains, rng_, host_pool_));
    ChargeCpu("he.fp_encrypt", plains.size(),
              ghe::PaillierEncryptLimbOps(options_.key_bits));
  }
  op_cells_.encrypts.fetch_add(static_cast<uint64_t>(n_cipher), std::memory_order_relaxed);
  op_cells_.values_encrypted.fetch_add(values.size(), std::memory_order_relaxed);
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
  EncVec out = a;
  const int64_t n_cipher = static_cast<int64_t>(a.data.size());
  if (options_.modeled) {
    for (size_t i = 0; i < a.data.size(); ++i) {
      out.data[i] = BigInt::Add(a.data[i], b.data[i]) % n_;
    }
    ChargeBatch("he.fp_add", n_cipher,
                ghe::PaillierAddLimbOps(options_.key_bits),
                2 * n_cipher * CiphertextWords() * 4,
                n_cipher * CiphertextWords() * 4);
  } else if (traits_.gpu_he) {
    FLB_ASSIGN_OR_RETURN(out.data, ghe_->PaillierAdd(*paillier_, a.data,
                                                     b.data));
  } else {
    FLB_ASSIGN_OR_RETURN(out.data,
                         paillier_->AddBatch(a.data, b.data, host_pool_));
    ChargeCpu("he.fp_add", a.data.size(),
              ghe::PaillierAddLimbOps(options_.key_bits));
  }
  op_cells_.hom_adds.fetch_add(a.data.size(), std::memory_order_relaxed);
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
  EncVec out = c;
  out.scale_muls = c.scale_muls + 1;
  const int64_t n_cipher = static_cast<int64_t>(c.data.size());
  const uint64_t limb_ops = ghe::PaillierScalarMulLimbOps(
      options_.key_bits, ScalarExpBits(options_.frac_bits));
  if (options_.modeled) {
    for (size_t i = 0; i < c.data.size(); ++i) {
      out.data[i] = BigInt::Mul(c.data[i], ks[i]) % n_;
    }
    ChargeBatch("he.fp_scalar_mul", n_cipher, limb_ops,
                2 * n_cipher * CiphertextWords() * 4,
                n_cipher * CiphertextWords() * 4);
  } else if (traits_.gpu_he) {
    FLB_ASSIGN_OR_RETURN(out.data,
                         ghe_->PaillierScalarMul(*paillier_, c.data, ks));
  } else {
    FLB_ASSIGN_OR_RETURN(out.data,
                         paillier_->ScalarMulBatch(c.data, ks, host_pool_));
    ChargeCpu("he.fp_scalar_mul", c.data.size(), limb_ops);
  }
  op_cells_.scalar_muls.fetch_add(c.data.size(), std::memory_order_relaxed);
  return out;
}

Result<EncVec> HeService::WeightedSums(
    const EncVec& c, const std::vector<std::vector<WeightedTerm>>& groups) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::WeightedSums"));
  FLB_RETURN_IF_ERROR(CheckLayout(c, EncLayout::kFixedPoint, "WeightedSums"));
  if (c.slots_per_cipher != 1) {
    return Status::InvalidArgument("WeightedSums: input must be unpacked");
  }
  // Flatten all terms into one scalar-mul batch.
  std::vector<BigInt> term_ciphers;
  std::vector<double> term_weights;
  for (const auto& group : groups) {
    for (const auto& term : group) {
      if (term.index >= c.data.size()) {
        return Status::OutOfRange("WeightedSums: term index out of range");
      }
      term_ciphers.push_back(c.data[term.index]);
      term_weights.push_back(term.weight);
    }
  }
  EncVec flat = c;
  flat.count = term_ciphers.size();
  flat.data = std::move(term_ciphers);
  FLB_ASSIGN_OR_RETURN(EncVec products, ScalarMulFixedPoint(flat, term_weights));

  // Fold products group-wise (charged as one add batch below).
  EncVec out;
  out.layout = EncLayout::kFixedPoint;
  out.count = groups.size();
  out.scale_muls = c.scale_muls + 1;
  out.modeled = options_.modeled;
  out.data.reserve(groups.size());
  size_t pos = 0;
  uint64_t adds = 0;
  for (const auto& group : groups) {
    if (group.empty()) {
      // Empty group: encrypted zero (modeled: residue 0).
      if (options_.modeled) {
        out.data.emplace_back();
      } else {
        FLB_ASSIGN_OR_RETURN(BigInt zero, paillier_->Encrypt(BigInt(), rng_));
        op_cells_.encrypts.fetch_add(1, std::memory_order_relaxed);
        out.data.push_back(std::move(zero));
      }
      continue;
    }
    BigInt acc = products.data[pos++];
    for (size_t t = 1; t < group.size(); ++t, ++pos) {
      if (options_.modeled) {
        acc = BigInt::Add(acc, products.data[pos]) % n_;
      } else {
        FLB_ASSIGN_OR_RETURN(acc, paillier_->Add(acc, products.data[pos]));
      }
      ++adds;
    }
    out.data.push_back(std::move(acc));
  }
  // ChargeBatch routes to the device model or the CPU cost model as the
  // engine dictates. (In real-GPU mode the fold arithmetic above ran on the
  // host context for simplicity; the charge prices it as the kernel the real
  // system would launch.)
  ChargeBatch("he.fp_fold", static_cast<int64_t>(adds),
              ghe::PaillierAddLimbOps(options_.key_bits),
              2 * adds * CiphertextWords() * 4,
              adds * CiphertextWords() * 4);
  op_cells_.hom_adds.fetch_add(adds, std::memory_order_relaxed);
  return out;
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
  EncVec out;
  out.layout = EncLayout::kFixedPoint;
  out.count = groups.size();
  out.scale_muls = c.scale_muls;
  out.modeled = options_.modeled;
  out.data.reserve(groups.size());
  uint64_t adds = 0;
  for (const auto& group : groups) {
    if (group.empty()) {
      if (options_.modeled) {
        out.data.emplace_back();
      } else {
        FLB_ASSIGN_OR_RETURN(BigInt zero, paillier_->Encrypt(BigInt(), rng_));
        op_cells_.encrypts.fetch_add(1, std::memory_order_relaxed);
        out.data.push_back(std::move(zero));
      }
      continue;
    }
    if (group[0] >= c.data.size()) {
      return Status::OutOfRange("SelectiveSums: index out of range");
    }
    BigInt acc = c.data[group[0]];
    for (size_t t = 1; t < group.size(); ++t) {
      if (group[t] >= c.data.size()) {
        return Status::OutOfRange("SelectiveSums: index out of range");
      }
      if (options_.modeled) {
        acc = BigInt::Add(acc, c.data[group[t]]) % n_;
      } else {
        FLB_ASSIGN_OR_RETURN(acc, paillier_->Add(acc, c.data[group[t]]));
      }
      ++adds;
    }
    out.data.push_back(std::move(acc));
  }
  ChargeBatch("he.selective_sum", static_cast<int64_t>(adds),
              ghe::PaillierAddLimbOps(options_.key_bits),
              2 * adds * CiphertextWords() * 4,
              adds * CiphertextWords() * 4);
  op_cells_.hom_adds.fetch_add(adds, std::memory_order_relaxed);
  return out;
}

Result<std::vector<double>> HeService::DecryptFixedPoint(const EncVec& c) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::DecryptFixedPoint"));
  FLB_RETURN_IF_ERROR(
      CheckLayout(c, EncLayout::kFixedPoint, "DecryptFixedPoint"));
  std::vector<BigInt> plains;
  const int64_t n_cipher = static_cast<int64_t>(c.data.size());
  if (options_.modeled) {
    plains = c.data;
    ChargeBatch("he.fp_decrypt", n_cipher,
                ghe::PaillierDecryptLimbOps(options_.key_bits),
                n_cipher * CiphertextWords() * 4,
                n_cipher * CiphertextWords() * 2);
  } else if (traits_.gpu_he) {
    FLB_ASSIGN_OR_RETURN(plains, ghe_->PaillierDecrypt(*paillier_, c.data));
  } else {
    FLB_ASSIGN_OR_RETURN(plains, paillier_->DecryptBatch(c.data, host_pool_));
    ChargeCpu("he.fp_decrypt", c.data.size(),
              ghe::PaillierDecryptLimbOps(options_.key_bits));
  }
  op_cells_.decrypts.fetch_add(c.data.size(), std::memory_order_relaxed);
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
  const int sb = fp_compress_slot_bits();
  const int slots = std::max(1, (options_.key_bits - 2) / sb);
  if (slots <= 1) return c;

  const BigInt offset = BigInt::PowerOfTwo(sb - 1);
  EncVec out;
  out.layout = EncLayout::kFixedPoint;
  out.count = c.count;
  out.scale_muls = c.scale_muls;
  out.slots_per_cipher = slots;
  out.fp_slot_bits = sb;
  out.modeled = options_.modeled;

  uint64_t adds = 0, addplains = 0, scalar_muls = 0;
  for (size_t base = 0; base < c.count; base += slots) {
    const size_t group = std::min<size_t>(slots, c.count - base);
    BigInt acc;
    bool acc_set = false;
    for (size_t j = 0; j < group; ++j) {
      // shifted = (value + offset) * 2^(j*sb), homomorphically.
      BigInt shifted;
      if (options_.modeled) {
        BigInt with_offset = BigInt::Add(c.data[base + j], offset) % n_;
        shifted = BigInt::ShiftLeft(with_offset, static_cast<int>(j) * sb) % n_;
      } else {
        FLB_ASSIGN_OR_RETURN(BigInt with_offset,
                             paillier_->AddPlain(c.data[base + j], offset));
        FLB_ASSIGN_OR_RETURN(
            shifted,
            paillier_->ScalarMul(with_offset,
                                 BigInt::PowerOfTwo(static_cast<int>(j) * sb)));
      }
      ++addplains;
      ++scalar_muls;
      if (!acc_set) {
        acc = std::move(shifted);
        acc_set = true;
      } else {
        if (options_.modeled) {
          acc = BigInt::Add(acc, shifted) % n_;
        } else {
          FLB_ASSIGN_OR_RETURN(acc, paillier_->Add(acc, shifted));
        }
        ++adds;
      }
    }
    out.data.push_back(std::move(acc));
  }
  // Charge the whole compression as one batch. Packing is Horner-style on
  // the device (acc = acc^(2^sb) * E(v_j + offset)), so each source
  // ciphertext costs sb squarings plus one multiply and one offset add —
  // NOT a full slots*sb-bit exponentiation. (The host reference
  // implementation above multiplies by 2^(j*sb) directly, which is
  // algebraically identical.)
  const size_t s2w = CiphertextWords();
  ChargeBatch("he.cipher_compress", static_cast<int64_t>(scalar_muls),
              (static_cast<uint64_t>(sb) + 6) * ghe::MontMulLimbOps(s2w),
              2 * scalar_muls * s2w * 4, out.data.size() * s2w * 4);
  op_cells_.hom_adds.fetch_add(adds + addplains, std::memory_order_relaxed);
  op_cells_.scalar_muls.fetch_add(scalar_muls, std::memory_order_relaxed);
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
  counter("flb.he.encrypts", op_cells_.encrypts.load(std::memory_order_relaxed));
  counter("flb.he.decrypts", op_cells_.decrypts.load(std::memory_order_relaxed));
  counter("flb.he.hom_adds", op_cells_.hom_adds.load(std::memory_order_relaxed));
  counter("flb.he.scalar_muls", op_cells_.scalar_muls.load(std::memory_order_relaxed));
  counter("flb.he.values_encrypted", op_cells_.values_encrypted.load(std::memory_order_relaxed));
  counter("flb.he.values_decrypted", op_cells_.values_decrypted.load(std::memory_order_relaxed));
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
