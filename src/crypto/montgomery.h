// Montgomery modular arithmetic.
//
// Implements the paper's Algorithm 1 (basic Montgomery multiplication) and
// the CIOS (Coarsely Integrated Operand Scanning) word-level form that
// Algorithm 2 parallelizes on the GPU. A MontgomeryContext is bound to one
// odd modulus n and precomputes:
//   * s       — the limb width of n (all operands are fixed to s limbs),
//   * n0'     — -n^{-1} mod 2^32 (the per-word Montgomery factor),
//   * R^2 mod n — for converting into the Montgomery domain,
//   * a fixed-width kernel (src/mpint/fixed_kernels.h) when s is one of
//     the instantiated Paillier widths — the stack-allocated, compile-time-
//     width CIOS that makes MontMul/ModPow run without heap traffic. Odd
//     widths (and use_fixed_kernels = false) keep the generic radix-2^32
//     path, which doubles as the bit-exactness oracle.
//
// ModPow uses sliding-window exponentiation (paper §IV-A3: complexity drops
// from e to log_{2^b} e multiplications for window width b). With a fixed
// kernel the whole exponentiation loop runs on flat limb buffers; only the
// final result is boxed back into a BigInt.
//
// The simulated-GPU kernel in src/ghe runs this exact CIOS recurrence with
// limbs distributed across device threads; tests assert bit-exact agreement.

#ifndef FLB_CRYPTO_MONTGOMERY_H_
#define FLB_CRYPTO_MONTGOMERY_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/mpint/bigint.h"
#include "src/mpint/fixed_kernels.h"

namespace flb::crypto {

using mpint::BigInt;

class MontgomeryContext {
 public:
  // The modulus must be odd and >= 3 (Montgomery's method requires
  // gcd(n, R) = 1 with R a power of two). `use_fixed_kernels` selects the
  // fixed-width kernel when the modulus width has one (pass false to force
  // the generic path, e.g. for differential benchmarks). Results are
  // bit-identical either way.
  static Result<MontgomeryContext> Create(const BigInt& modulus,
                                          bool use_fixed_kernels = true);

  // Copies carry over the counter value; the context itself is immutable
  // after Create, so copies are safe to share across host threads.
  MontgomeryContext(const MontgomeryContext& other) { *this = other; }
  MontgomeryContext(MontgomeryContext&& other) noexcept { *this = other; }
  MontgomeryContext& operator=(const MontgomeryContext& other) {
    if (this != &other) {
      n_ = other.n_;
      s_ = other.s_;
      n0_inv_ = other.n0_inv_;
      n0_inv64_ = other.n0_inv64_;
      kernel_ = other.kernel_;
      r_mod_n_ = other.r_mod_n_;
      r2_mod_n_ = other.r2_mod_n_;
      r_words_ = other.r_words_;
      r2_words_ = other.r2_words_;
      one_words_ = other.one_words_;
      mont_mul_count_.store(other.mont_mul_count_.load(),
                            std::memory_order_relaxed);
    }
    return *this;
  }
  MontgomeryContext& operator=(MontgomeryContext&& other) noexcept {
    return *this = other;
  }

  const BigInt& modulus() const { return n_; }
  // Limb width s: every Montgomery-domain value is exactly s limbs.
  size_t num_limbs() const { return s_; }
  // -n^{-1} mod 2^32.
  uint32_t n0_inv() const { return n0_inv_; }
  // The fixed-width kernel width backing this context, or 0 when MontMul
  // and ModPow run on the generic radix-2^32 path.
  size_t fixed_kernel_width() const {
    return kernel_ != nullptr ? kernel_->limbs : 0;
  }

  // Montgomery-domain conversions. Inputs must be < n.
  BigInt ToMont(const BigInt& a) const;
  BigInt FromMont(const BigInt& a) const;
  // Montgomery form of 1 (R mod n) — the neutral element for MontMul chains
  // such as fixed-base exponentiation tables.
  const BigInt& MontOne() const { return r_mod_n_; }

  // Computes a*b*R^{-1} mod n for Montgomery-domain a, b (each < n).
  BigInt MontMul(const BigInt& a, const BigInt& b) const;

  // Fixed-width limb-vector form of MontMul. a, b are s-limb little-endian
  // arrays; the result is written to out (s limbs; out may alias a or b).
  // Dispatches to the fixed-width kernel when one is bound, else to the
  // generic CIOS. Exposed so src/ghe and the batch paths can drive it
  // directly on flat (structure-of-arrays) rows.
  void MontMulWords(const uint32_t* a, const uint32_t* b, uint32_t* out) const;
  // Montgomery squaring on flat limbs: out = a*a*R^{-1} mod n.
  void MontSqrWords(const uint32_t* a, uint32_t* out) const;
  // (a * b) mod n entirely on flat s-limb rows (ToMont/MontMul/FromMont
  // without BigInt boxing). out may alias a or b.
  void ModMulWords(const uint32_t* a, const uint32_t* b, uint32_t* out) const;

  // The generic radix-2^32 CIOS loop — the exact recurrence the GPU kernel
  // parallelizes and the bit-exactness oracle the fixed-width kernels are
  // fuzzed against. Does not bump the MontMul counter.
  void MontMulWordsGeneric(const uint32_t* a, const uint32_t* b,
                           uint32_t* out) const;

  // Algorithm 1 from the paper: the "basic" (non-word-scanning) Montgomery
  // product A*B*R^{-1} mod n computed with full-width BigInt ops. Kept as a
  // differential-testing oracle and for bench_montgomery.
  BigInt MontMulBasic(const BigInt& a, const BigInt& b) const;

  // (a * b) mod n for ordinary-domain values.
  BigInt ModMul(const BigInt& a, const BigInt& b) const;

  // a^e mod n by sliding-window exponentiation over MontMul.
  // `window_bits` in [1, 8]; 0 selects a width based on e's size.
  BigInt ModPow(const BigInt& base, const BigInt& exp,
                int window_bits = 0) const;

  // Number of MontMul invocations since construction (mutable counter used
  // by the cost model and the GPU simulator's instruction accounting).
  // Relaxed atomic: one context is shared by all host pool workers, and the
  // sum of per-thread increments is order-independent. The fixed-width
  // ModPow accumulates locally and adds once per call; totals match the
  // generic path MontMul-for-MontMul.
  uint64_t mont_mul_count() const {
    return mont_mul_count_.load(std::memory_order_relaxed);
  }
  void ResetCounters() const {
    mont_mul_count_.store(0, std::memory_order_relaxed);
  }

 private:
  MontgomeryContext() = default;

  // Sliding-window ModPow on flat limb buffers via the fixed kernel;
  // bit-identical to (and MontMul-count-identical with) the generic loop.
  BigInt ModPowFixed(const BigInt& base, const BigInt& exp, int exp_bits,
                     int window_bits) const;

  BigInt n_;
  size_t s_ = 0;
  uint32_t n0_inv_ = 0;
  uint64_t n0_inv64_ = 0;
  const mpint::fixed::KernelOps* kernel_ = nullptr;  // null = generic path
  BigInt r_mod_n_;   // R mod n    (Montgomery form of 1)
  BigInt r2_mod_n_;  // R^2 mod n
  // Flat s-limb copies for the kernel paths (avoid re-boxing per call).
  std::vector<uint32_t> r_words_;    // R mod n
  std::vector<uint32_t> r2_words_;   // R^2 mod n
  std::vector<uint32_t> one_words_;  // 1
  mutable std::atomic<uint64_t> mont_mul_count_{0};
};

// Picks the sliding-window width the way HAC 14.85's table does: wider
// windows for longer exponents.
int ChooseWindowBits(int exp_bits);

}  // namespace flb::crypto

#endif  // FLB_CRYPTO_MONTGOMERY_H_
