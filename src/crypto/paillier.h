// Paillier additively homomorphic cryptosystem (Paillier, EUROCRYPT'99),
// the HE scheme FLBooster accelerates (paper §III-B):
//
//   KeyGen:  n = p*q, lambda = lcm(p-1, q-1), g in Z*_{n^2},
//            mu = L(g^lambda mod n^2)^{-1} mod n,  L(x) = (x-1)/n.
//   Enc(m):  c = g^m * r^n mod n^2, r uniform in Z*_n.
//   Dec(c):  m = L(c^lambda mod n^2) * mu mod n.
//   Add:     Dec(c1 * c2 mod n^2) = m1 + m2 mod n.
//   ScalarMul: Dec(c^k mod n^2) = k * m mod n.
//
// Implementation fast paths, each individually testable against the general
// form:
//   * g = n+1 (default): g^m mod n^2 collapses to 1 + m*n, removing one
//     full modular exponentiation from every encryption.
//   * CRT decryption: decrypt mod p^2 and q^2 separately and CRT-combine,
//     ~4x fewer limb operations than working mod n^2.
//   * Obfuscation pool (default): r^n mod n^2 — the dominant encryption
//     cost — is drawn from a per-key precomputed pool and refreshed by one
//     Montgomery squaring per draw ((r^n)^2 = (r^2)^n). Set
//     PaillierOptions::secure_obfuscation to keep the fresh full-powm path.
//   * Fixed-base g^m table for random-g keys (PaillierEval).
//
// This header is the CPU reference path; src/ghe provides the batched
// simulated-GPU path over the same key types. The *Batch helpers run
// element-parallel on a host ThreadPool with per-element seeded randomness,
// so batch results are bit-identical at any thread count.

#ifndef FLB_CRYPTO_PAILLIER_H_
#define FLB_CRYPTO_PAILLIER_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/crypto/montgomery.h"
#include "src/crypto/paillier_eval.h"
#include "src/mpint/bigint.h"

namespace flb::common {
class ThreadPool;
}  // namespace flb::common

namespace flb::crypto {

struct PaillierPublicKey {
  int key_bits = 0;        // bit length of n
  BigInt n;
  BigInt g;
  BigInt n_squared;
  bool g_is_n_plus_1 = true;

  // Serialized ciphertext width: ciphertexts live in Z_{n^2}.
  size_t CiphertextWords() const {
    return (static_cast<size_t>(key_bits) * 2 + mpint::kLimbBits - 1) /
           mpint::kLimbBits;
  }
  size_t CiphertextBytes() const { return CiphertextWords() * 4; }
};

struct PaillierPrivateKey {
  BigInt p;
  BigInt q;
  BigInt lambda;  // lcm(p-1, q-1)
  BigInt mu;      // L(g^lambda mod n^2)^{-1} mod n
};

struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

struct PaillierOptions {
  bool use_g_n_plus_1 = true;  // false selects a random g (paper's form)
  bool use_crt_decryption = true;
  // true: every encryption pays a fresh r^n full exponentiation (the
  // original path; randomness comes entirely from the caller's Rng).
  // false (default): single-op encryptions draw from the per-key
  // ObfuscationPool, batch encryptions derive obfuscators from one seed.
  bool secure_obfuscation = false;
  // Obfuscators precomputed per key (pool path only).
  int obfuscation_pool_size = 16;
  // Pool fill seed: fixed by default so equal keys + equal call sequences
  // produce equal ciphertext streams.
  uint64_t obfuscation_seed = 0xF1B0057E20230401ULL;
  // Dispatch the fixed-width Montgomery kernels for this key's contexts
  // when the limb widths are instantiated (src/mpint/fixed_kernels.h).
  // Ciphertexts, plaintexts, and op counts are bit-identical either way —
  // false keeps the generic radix-2^32 path (the differential oracle).
  bool use_fixed_width_kernels = true;
};

// Generates a Paillier key pair with |n| == key_bits (p and q are
// key_bits/2-bit primes). key_bits must be even and >= 64.
Result<PaillierKeyPair> PaillierKeyGen(int key_bits, Rng& rng,
                                       const PaillierOptions& options = {});

// Binds a key pair (private part optional) to a PaillierEval holding all
// per-key precomputation. All homomorphic operations live here. Copyable
// (eval and pool are shared; the eval is immutable after construction).
class PaillierContext {
 public:
  // Public-key-only context: can encrypt and do homomorphic ops.
  static Result<PaillierContext> CreatePublic(
      PaillierPublicKey pub, const PaillierOptions& options = {});
  // Full context: can also decrypt.
  static Result<PaillierContext> Create(PaillierKeyPair keys,
                                        const PaillierOptions& options = {});

  const PaillierPublicKey& pub() const { return pub_; }
  bool can_decrypt() const { return priv_.has_value(); }

  // Encrypts m in [0, n). With secure_obfuscation, r is drawn from rng;
  // otherwise the obfuscator comes from the pool and rng is untouched.
  Result<BigInt> Encrypt(const BigInt& m, Rng& rng) const;
  // Decrypts c in [0, n^2); requires a private key.
  Result<BigInt> Decrypt(const BigInt& c) const;
  // E(m1) (*) E(m2) = E(m1 + m2 mod n).
  Result<BigInt> Add(const BigInt& c1, const BigInt& c2) const;
  // E(m) (*) g^k = E(m + k mod n) without encrypting k's randomness — used
  // by servers that add public constants.
  Result<BigInt> AddPlain(const BigInt& c, const BigInt& k) const;
  // E(m)^k = E(k*m mod n).
  Result<BigInt> ScalarMul(const BigInt& c, const BigInt& k) const;

  // ---- Element-parallel batch helpers ---------------------------------------
  // All run on `pool` (nullptr = the process-global ThreadPool). Outputs,
  // statuses, and op counts are bit-identical at any thread count: element
  // i's output depends only on the inputs, i, and one seed drawn from rng.
  //
  // EncryptBatch draws ONE u64 seed from rng. With secure_obfuscation each
  // element pays a fresh r^n powm with its per-element generator
  // Rng::ForStream(seed, i); otherwise obfuscators come from a per-call
  // seeded pool of obfuscation_pool_size bases refreshed by Montgomery
  // squaring, amortizing the powms across the batch.
  Result<std::vector<BigInt>> EncryptBatch(
      const std::vector<BigInt>& ms, Rng& rng,
      common::ThreadPool* pool = nullptr) const;
  Result<std::vector<BigInt>> DecryptBatch(
      const std::vector<BigInt>& cs, common::ThreadPool* pool = nullptr) const;
  Result<std::vector<BigInt>> AddBatch(const std::vector<BigInt>& c1,
                                       const std::vector<BigInt>& c2,
                                       common::ThreadPool* pool = nullptr) const;
  Result<std::vector<BigInt>> AddPlainBatch(
      const std::vector<BigInt>& cs, const std::vector<BigInt>& ks,
      common::ThreadPool* pool = nullptr) const;
  Result<std::vector<BigInt>> ScalarMulBatch(
      const std::vector<BigInt>& cs, const std::vector<BigInt>& ks,
      common::ThreadPool* pool = nullptr) const;

  // The n^2 Montgomery context (the GHE layer reuses it for batched ops).
  const MontgomeryContext& n2_ctx() const { return eval_->n2_ctx(); }
  // All per-key precomputation (contexts, CRT constants, fixed-base table).
  const PaillierEval& eval() const { return *eval_; }
  // The persistent obfuscation pool (single-op encryptions draw from it).
  const ObfuscationPool& obfuscation_pool() const { return *pool_; }
  bool secure_obfuscation() const { return secure_obfuscation_; }

  // Operation counters for the cost model. Relaxed atomics: the context is
  // shared across host pool workers and sums are order-independent.
  struct OpCounts {
    std::atomic<uint64_t> encrypts{0};
    std::atomic<uint64_t> decrypts{0};
    std::atomic<uint64_t> adds{0};
    std::atomic<uint64_t> scalar_muls{0};

    OpCounts() = default;
    OpCounts(const OpCounts& other) { *this = other; }
    OpCounts& operator=(const OpCounts& other) {
      encrypts.store(other.encrypts.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      decrypts.store(other.decrypts.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      adds.store(other.adds.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
      scalar_muls.store(other.scalar_muls.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      return *this;
    }
  };
  const OpCounts& op_counts() const { return op_counts_; }
  void ResetOpCounts() const { op_counts_ = OpCounts{}; }

 private:
  PaillierContext() = default;

  Result<BigInt> DecryptPlain(const BigInt& c) const;
  Result<BigInt> DecryptCrt(const BigInt& c) const;
  // ScalarMul without the op-count bump (batch path counts per batch).
  BigInt ScalarMulUncounted(const BigInt& c, const BigInt& k) const;
  // g^m mod n^2 via the (n+1) fast path or the fixed-base table.
  BigInt GPowM(const BigInt& m) const;
  // c * obf mod n^2 with obf already in Montgomery form.
  BigInt ApplyObfuscatorMont(const BigInt& gm, const BigInt& obf_mont) const;

  PaillierPublicKey pub_;
  std::optional<PaillierPrivateKey> priv_;
  bool use_crt_ = true;
  bool secure_obfuscation_ = false;
  bool use_fixed_width_ = true;
  int pool_size_ = 16;

  std::shared_ptr<const PaillierEval> eval_;
  std::shared_ptr<ObfuscationPool> pool_;

  mutable OpCounts op_counts_;
};

}  // namespace flb::crypto

#endif  // FLB_CRYPTO_PAILLIER_H_
