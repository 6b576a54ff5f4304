#include "src/crypto/montgomery.h"

#include <algorithm>

#include "src/common/check.h"

namespace flb::crypto {

namespace {

// -n^{-1} mod 2^32 by Newton–Hensel lifting: for odd n, x_{k+1} = x_k*(2 -
// n*x_k) doubles the number of correct low bits each step.
uint32_t NegInverseMod2p32(uint32_t n0) {
  uint32_t x = n0;  // correct to 3 bits for odd n0 (n0*n0 ≡ 1 mod 8)
  for (int i = 0; i < 5; ++i) x *= 2 - n0 * x;
  return static_cast<uint32_t>(0u - x);
}

// Largest width the flat-scratch fast paths keep on the stack; contexts
// wider than this (e.g. high-degree Damgard–Jurik moduli) fall back to one
// heap scratch per call.
constexpr size_t kMaxStackLimbs = 256;

}  // namespace

int ChooseWindowBits(int exp_bits) {
  if (exp_bits <= 24) return 1;
  if (exp_bits <= 80) return 3;
  if (exp_bits <= 240) return 4;
  if (exp_bits <= 672) return 5;
  return 6;
}

Result<MontgomeryContext> MontgomeryContext::Create(const BigInt& modulus,
                                                    bool use_fixed_kernels) {
  if (modulus < BigInt(3)) {
    return Status::InvalidArgument("Montgomery modulus must be >= 3");
  }
  if (modulus.IsEven()) {
    return Status::InvalidArgument("Montgomery modulus must be odd");
  }
  MontgomeryContext ctx;
  ctx.n_ = modulus;
  ctx.s_ = modulus.WordCount();
  ctx.n0_inv_ = NegInverseMod2p32(modulus.word(0));
  const BigInt r = BigInt::PowerOfTwo(static_cast<int>(ctx.s_) * mpint::kLimbBits);
  ctx.r_mod_n_ = r % modulus;
  ctx.r2_mod_n_ = BigInt::Mul(ctx.r_mod_n_, ctx.r_mod_n_) % modulus;
  ctx.r_words_ = ctx.r_mod_n_.ToFixedWords(ctx.s_);
  ctx.r2_words_ = ctx.r2_mod_n_.ToFixedWords(ctx.s_);
  ctx.one_words_ = BigInt(1).ToFixedWords(ctx.s_);
  if (use_fixed_kernels) {
    // One table lookup per key: every MontMul/ModPow on this context then
    // runs the compile-time-width kernel. Unsupported widths keep the
    // generic path (kernel_ stays null).
    ctx.kernel_ = mpint::fixed::FindKernel(ctx.s_);
    if (ctx.kernel_ != nullptr) {
      const uint64_t n64 = static_cast<uint64_t>(modulus.word(0)) |
                           (static_cast<uint64_t>(modulus.word(1)) << 32);
      ctx.n0_inv64_ = mpint::fixed::NegInverseMod2p64(n64);
    }
  }
  return ctx;
}

void MontgomeryContext::MontMulWordsGeneric(const uint32_t* a,
                                            const uint32_t* b,
                                            uint32_t* out) const {
  const size_t s = s_;
  const std::vector<uint32_t>& n = n_.words();
  // t has s+2 limbs; CIOS interleaves multiplication and reduction so the
  // working buffer never exceeds s+2 words (Koç–Acar–Kaliski).
  std::vector<uint32_t> t(s + 2, 0);
  for (size_t i = 0; i < s; ++i) {
    // Multiplication step: t += a * b[i].
    uint64_t carry = 0;
    const uint64_t bi = b[i];
    for (size_t j = 0; j < s; ++j) {
      const uint64_t cur = static_cast<uint64_t>(t[j]) + bi * a[j] + carry;
      t[j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    uint64_t cur = static_cast<uint64_t>(t[s]) + carry;
    t[s] = static_cast<uint32_t>(cur);
    t[s + 1] = static_cast<uint32_t>(cur >> 32);

    // Reduction step: m makes the low word of t vanish (mod 2^32).
    const uint32_t m = t[0] * n0_inv_;
    cur = static_cast<uint64_t>(t[0]) + static_cast<uint64_t>(m) * n[0];
    carry = cur >> 32;
    for (size_t j = 1; j < s; ++j) {
      cur = static_cast<uint64_t>(t[j]) + static_cast<uint64_t>(m) * n[j] +
            carry;
      t[j - 1] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    cur = static_cast<uint64_t>(t[s]) + carry;
    t[s - 1] = static_cast<uint32_t>(cur);
    t[s] = t[s + 1] + static_cast<uint32_t>(cur >> 32);
  }

  // Final conditional subtraction: the loop guarantees t < 2n.
  bool ge = t[s] != 0;
  if (!ge) {
    ge = true;
    for (size_t i = s; i-- > 0;) {
      const uint32_t ni = i < n.size() ? n[i] : 0;
      if (t[i] != ni) {
        ge = t[i] > ni;
        break;
      }
    }
  }
  if (ge) {
    int64_t borrow = 0;
    for (size_t i = 0; i < s; ++i) {
      const uint32_t ni = i < n.size() ? n[i] : 0;
      int64_t diff = static_cast<int64_t>(t[i]) - ni - borrow;
      if (diff < 0) {
        diff += static_cast<int64_t>(mpint::kLimbBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      out[i] = static_cast<uint32_t>(diff);
    }
  } else {
    std::copy(t.begin(), t.begin() + s, out);
  }
}

void MontgomeryContext::MontMulWords(const uint32_t* a, const uint32_t* b,
                                     uint32_t* out) const {
  mont_mul_count_.fetch_add(1, std::memory_order_relaxed);
  if (kernel_ != nullptr) {
    kernel_->mont_mul(out, a, b, n_.words().data(), n0_inv64_);
  } else {
    MontMulWordsGeneric(a, b, out);
  }
}

void MontgomeryContext::MontSqrWords(const uint32_t* a, uint32_t* out) const {
  mont_mul_count_.fetch_add(1, std::memory_order_relaxed);
  if (kernel_ != nullptr) {
    kernel_->mont_sqr(out, a, n_.words().data(), n0_inv64_);
  } else {
    MontMulWordsGeneric(a, a, out);
  }
}

void MontgomeryContext::ModMulWords(const uint32_t* a, const uint32_t* b,
                                    uint32_t* out) const {
  // ToMont(a), ToMont(b), MontMul, FromMont — the exact op sequence (and
  // MontMul count) of ModMul, minus the per-step BigInt boxing.
  uint32_t stack[2 * kMaxStackLimbs];
  std::vector<uint32_t> heap;
  uint32_t* ta;
  if (s_ <= kMaxStackLimbs) {
    ta = stack;
  } else {
    heap.resize(2 * s_);
    ta = heap.data();
  }
  uint32_t* tb = ta + s_;
  MontMulWords(a, r2_words_.data(), ta);
  MontMulWords(b, r2_words_.data(), tb);
  MontMulWords(ta, tb, ta);
  MontMulWords(ta, one_words_.data(), out);
}

BigInt MontgomeryContext::MontMul(const BigInt& a, const BigInt& b) const {
  FLB_DCHECK(a < n_ && b < n_, "MontMul operands must be < n");
  const std::vector<uint32_t> aw = a.ToFixedWords(s_);
  const std::vector<uint32_t> bw = b.ToFixedWords(s_);
  std::vector<uint32_t> out(s_);
  MontMulWords(aw.data(), bw.data(), out.data());
  return BigInt::FromWords(std::move(out));
}

BigInt MontgomeryContext::MontMulBasic(const BigInt& a, const BigInt& b) const {
  // Algorithm 1: T = A*B; M = T*N' mod R; U = (T + M*N)/R; subtract N once
  // if needed. N' here is the full-width -n^{-1} mod R.
  const int r_bits = static_cast<int>(s_) * mpint::kLimbBits;
  const BigInt r = BigInt::PowerOfTwo(r_bits);
  auto n_inv = BigInt::ModInverse(n_, r);
  FLB_CHECK(n_inv.ok(), "modulus not invertible mod R");
  const BigInt n_prime = BigInt::Sub(r, n_inv.value());  // -n^{-1} mod R
  const BigInt t = BigInt::Mul(a, b);
  const BigInt m = BigInt::TruncateBits(BigInt::Mul(t, n_prime), r_bits);
  BigInt u = BigInt::ShiftRight(BigInt::Add(t, BigInt::Mul(m, n_)), r_bits);
  if (u >= n_) u = BigInt::Sub(u, n_);
  return u;
}

BigInt MontgomeryContext::ToMont(const BigInt& a) const {
  return MontMul(a, r2_mod_n_);
}

BigInt MontgomeryContext::FromMont(const BigInt& a) const {
  return MontMul(a, BigInt(1));
}

BigInt MontgomeryContext::ModMul(const BigInt& a, const BigInt& b) const {
  return FromMont(MontMul(ToMont(a), ToMont(b)));
}

BigInt MontgomeryContext::ModPowFixed(const BigInt& base, const BigInt& exp,
                                      int exp_bits, int w) const {
  const size_t s = s_;
  const uint32_t* nw = n_.words().data();
  const mpint::fixed::KernelOps* k = kernel_;
  // The whole exponentiation runs on flat buffers; the counter is bumped
  // once at the end so the hot loop carries no atomic traffic.
  uint64_t muls = 0;
  const auto mul = [&](uint32_t* z, const uint32_t* x, const uint32_t* y) {
    k->mont_mul(z, x, y, nw, n0_inv64_);
    ++muls;
  };
  const auto sqr = [&](uint32_t* z, const uint32_t* x) {
    k->mont_sqr(z, x, nw, n0_inv64_);
    ++muls;
  };

  std::vector<uint32_t> buf(2 * s);
  uint32_t* mb = buf.data();       // base in Montgomery form
  uint32_t* acc = buf.data() + s;  // accumulator
  const std::vector<uint32_t> bw = base.ToFixedWords(s);
  mul(mb, bw.data(), r2_words_.data());  // ToMont(base)

  if (w == 1) {
    // Plain left-to-right square-and-multiply.
    std::copy(mb, mb + s, acc);
    for (int i = exp_bits - 2; i >= 0; --i) {
      sqr(acc, acc);
      if (exp.GetBit(i)) mul(acc, acc, mb);
    }
  } else {
    // Sliding window: odd powers mb^1, mb^3, ..., mb^(2^w - 1) as rows of
    // one flat table.
    const size_t table_size = size_t{1} << (w - 1);
    std::vector<uint32_t> table(table_size * s);
    std::copy(mb, mb + s, table.data());
    std::vector<uint32_t> mb2(s);
    sqr(mb2.data(), mb);
    for (size_t i = 1; i < table_size; ++i) {
      mul(table.data() + i * s, table.data() + (i - 1) * s, mb2.data());
    }

    std::copy(r_words_.begin(), r_words_.end(), acc);  // Montgomery form of 1
    int i = exp_bits - 1;
    while (i >= 0) {
      if (!exp.GetBit(i)) {
        sqr(acc, acc);
        --i;
        continue;
      }
      // Widest window [i .. j] ending in a set bit, at most w bits.
      int j = std::max(i - w + 1, 0);
      while (!exp.GetBit(j)) ++j;
      uint32_t window_value = 0;
      for (int b = i; b >= j; --b) {
        window_value = (window_value << 1) | (exp.GetBit(b) ? 1u : 0u);
      }
      for (int b = i; b >= j; --b) sqr(acc, acc);
      mul(acc, acc, table.data() + (window_value >> 1) * s);
      i = j - 1;
    }
  }

  mul(acc, acc, one_words_.data());  // FromMont
  mont_mul_count_.fetch_add(muls, std::memory_order_relaxed);
  return BigInt::FromWords(std::vector<uint32_t>(acc, acc + s));
}

BigInt MontgomeryContext::ModPow(const BigInt& base, const BigInt& exp,
                                 int window_bits) const {
  if (exp.IsZero()) return BigInt(1) % n_;
  BigInt b = base >= n_ ? base % n_ : base;
  const int exp_bits = exp.BitLength();
  const int w =
      window_bits > 0 ? std::min(window_bits, 8) : ChooseWindowBits(exp_bits);

  if (kernel_ != nullptr) return ModPowFixed(b, exp, exp_bits, w);

  const BigInt mb = ToMont(b);
  if (w == 1) {
    // Plain left-to-right square-and-multiply.
    BigInt acc = mb;
    for (int i = exp_bits - 2; i >= 0; --i) {
      acc = MontMul(acc, acc);
      if (exp.GetBit(i)) acc = MontMul(acc, mb);
    }
    return FromMont(acc);
  }

  // Sliding window: precompute odd powers mb^1, mb^3, ..., mb^(2^w - 1).
  const size_t table_size = size_t{1} << (w - 1);
  std::vector<BigInt> odd_pow(table_size);
  odd_pow[0] = mb;
  const BigInt mb2 = MontMul(mb, mb);
  for (size_t i = 1; i < table_size; ++i) {
    odd_pow[i] = MontMul(odd_pow[i - 1], mb2);
  }

  BigInt acc = r_mod_n_;  // Montgomery form of 1
  int i = exp_bits - 1;
  while (i >= 0) {
    if (!exp.GetBit(i)) {
      acc = MontMul(acc, acc);
      --i;
      continue;
    }
    // Widest window [i .. j] ending in a set bit, at most w bits.
    int j = std::max(i - w + 1, 0);
    while (!exp.GetBit(j)) ++j;
    uint32_t window_value = 0;
    for (int k = i; k >= j; --k) {
      window_value = (window_value << 1) | (exp.GetBit(k) ? 1u : 0u);
    }
    for (int k = i; k >= j; --k) acc = MontMul(acc, acc);
    acc = MontMul(acc, odd_pow[window_value >> 1]);
    i = j - 1;
  }
  return FromMont(acc);
}

}  // namespace flb::crypto
