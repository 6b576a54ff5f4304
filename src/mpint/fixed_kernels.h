// Fixed-width limb kernels for the modular-arithmetic hot path.
//
// The generic BigInt/MontgomeryContext path (src/mpint/bigint.cc,
// src/crypto/montgomery.cc) works on heap-backed radix-2^32 limb vectors:
// every MontMul in a 1024/2048/4096-bit Paillier operation pays dynamic
// sizing, allocation, and a runtime trip count on the platform's single
// hottest loop. Following the mcl low_func idiom (SNIPPETS.md Snippet 1),
// this header provides `template <size_t N>` kernels — add/sub carry
// chains, mulPre, CIOS MontMul/MontSqr — over flat uint32_t[N] arrays with
// compile-time widths, so the compiler unrolls the carry chains and every
// working buffer lives on the stack.
//
// Where the speed comes from:
//   * compile-time trip counts: the CIOS i/j loops unroll; no per-limb
//     bounds or size checks survive into the inner loop;
//   * zero allocation: the CIOS working buffer is a stack array;
//   * a radix-2^64 interior (when the platform has a 128-bit integer type):
//     operands are composed into 64-bit words on entry, the CIOS recurrence
//     runs on 64x64->128 hardware multiplies — one quarter the iterations
//     of the radix-2^32 reference — and the result is decomposed back to
//     the platform-wide uint32_t limb layout on exit.
//
// Bit-exactness: Montgomery multiplication with R = 2^(32*N) computes a
// unique canonical representative a*b*R^{-1} mod n < n, and R is the same
// power of two whether the interior scans 32- or 64-bit words (N is even
// for every instantiated width). Every kernel therefore produces byte-for-
// byte the results of the generic path; tests/fixed_width_test.cc fuzzes
// this against the radix-2^32 oracle across all supported widths.
//
// Dispatch: widths are instantiated for the limb counts backing
// 256..4096-bit Paillier keys (n, n^2, p^2/q^2 contexts — see
// fixed_kernels.cc). crypto::MontgomeryContext::Create looks the table up
// once per modulus; odd widths fall back to the generic path.

#ifndef FLB_MPINT_FIXED_KERNELS_H_
#define FLB_MPINT_FIXED_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flb::mpint::fixed {

// Dispatch record for one supported limb width N. All pointers operate on
// little-endian uint32_t arrays of exactly N limbs (mul_pre writes 2N).
// mont_mul/mont_sqr permit `z` to alias any input (the working buffer is
// internal); `mod` must be odd with its top limb significant or not — only
// the value matters. n0_inv64 is -mod^{-1} mod 2^64 (NegInverseMod2p64).
struct KernelOps {
  size_t limbs = 0;
  // z[N] = x[N] + y[N]; returns the carry-out (0 or 1).
  uint32_t (*add)(uint32_t* z, const uint32_t* x, const uint32_t* y) = nullptr;
  // z[N] = x[N] - y[N]; returns the borrow-out (0 or 1).
  uint32_t (*sub)(uint32_t* z, const uint32_t* x, const uint32_t* y) = nullptr;
  // z[2N] = x[N] * y[N] (full product, no reduction). z must not alias.
  void (*mul_pre)(uint32_t* z, const uint32_t* x, const uint32_t* y) = nullptr;
  // z[N] = x*y*R^{-1} mod `mod`, R = 2^(32N); inputs < mod, output < mod.
  void (*mont_mul)(uint32_t* z, const uint32_t* x, const uint32_t* y,
                   const uint32_t* mod, uint64_t n0_inv64) = nullptr;
  // z[N] = x*x*R^{-1} mod `mod`.
  void (*mont_sqr)(uint32_t* z, const uint32_t* x, const uint32_t* mod,
                   uint64_t n0_inv64) = nullptr;
};

// The kernel table entry for `limbs` 32-bit limbs, or nullptr when that
// width has no instantiation (callers keep the generic path).
const KernelOps* FindKernel(size_t limbs);

// Every width with a kernel instantiation, ascending (for tests/benches).
std::vector<size_t> SupportedWidths();

// -n^{-1} mod 2^64 for odd n (Newton–Hensel lifting; the radix-2^64
// Montgomery factor mirroring crypto's radix-2^32 NegInverseMod2p32).
uint64_t NegInverseMod2p64(uint64_t n0);

// ---- Template kernels -------------------------------------------------------
// Header-visible so tests can instantiate widths beyond the table; normal
// callers go through FindKernel.

namespace detail {

#if defined(__SIZEOF_INT128__)
inline constexpr bool kHasWideMul = true;
using u128 = unsigned __int128;
#else
inline constexpr bool kHasWideMul = false;
#endif

// Compose N little-endian 32-bit limbs into N/2 64-bit words.
template <size_t N>
inline void Compose64(const uint32_t* x, uint64_t* y) {
  for (size_t i = 0; i < N / 2; ++i) {
    y[i] = static_cast<uint64_t>(x[2 * i]) |
           (static_cast<uint64_t>(x[2 * i + 1]) << 32);
  }
}

// Decompose N/2 64-bit words back into N little-endian 32-bit limbs.
template <size_t N>
inline void Decompose64(const uint64_t* x, uint32_t* y) {
  for (size_t i = 0; i < N / 2; ++i) {
    y[2 * i] = static_cast<uint32_t>(x[i]);
    y[2 * i + 1] = static_cast<uint32_t>(x[i] >> 32);
  }
}

}  // namespace detail

// z = x + y over N limbs; returns carry. The uint64 accumulator pattern
// compiles to an add-with-carry chain at a compile-time trip count.
template <size_t N>
uint32_t AddN(uint32_t* z, const uint32_t* x, const uint32_t* y) {
  uint64_t carry = 0;
  for (size_t i = 0; i < N; ++i) {
    const uint64_t cur = static_cast<uint64_t>(x[i]) + y[i] + carry;
    z[i] = static_cast<uint32_t>(cur);
    carry = cur >> 32;
  }
  return static_cast<uint32_t>(carry);
}

// z = x - y over N limbs; returns borrow. On underflow the uint64
// difference wraps, leaving all-ones in the high half — bit 32 is the
// borrow.
template <size_t N>
uint32_t SubN(uint32_t* z, const uint32_t* x, const uint32_t* y) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < N; ++i) {
    const uint64_t cur = static_cast<uint64_t>(x[i]) - y[i] - borrow;
    z[i] = static_cast<uint32_t>(cur);
    borrow = (cur >> 32) & 1;
  }
  return static_cast<uint32_t>(borrow);
}

// z[2N] = x[N] * y[N], schoolbook operand scanning.
template <size_t N>
void MulPreN(uint32_t* z, const uint32_t* x, const uint32_t* y) {
  static_assert(N % 2 == 0, "fixed kernels require an even limb count");
  if constexpr (detail::kHasWideMul) {
#if defined(__SIZEOF_INT128__)
    using detail::u128;
    constexpr size_t H = N / 2;
    uint64_t a[H], b[H], t[2 * H];
    detail::Compose64<N>(x, a);
    detail::Compose64<N>(y, b);
    for (size_t i = 0; i < 2 * H; ++i) t[i] = 0;
    for (size_t i = 0; i < H; ++i) {
      u128 carry = 0;
      const uint64_t bi = b[i];
      for (size_t j = 0; j < H; ++j) {
        const u128 cur = static_cast<u128>(a[j]) * bi + t[i + j] + carry;
        t[i + j] = static_cast<uint64_t>(cur);
        carry = cur >> 64;
      }
      t[i + H] = static_cast<uint64_t>(carry);
    }
    detail::Decompose64<2 * N>(t, z);
#endif
  } else {
    for (size_t i = 0; i < 2 * N; ++i) z[i] = 0;
    for (size_t i = 0; i < N; ++i) {
      uint64_t carry = 0;
      const uint64_t yi = y[i];
      for (size_t j = 0; j < N; ++j) {
        const uint64_t cur =
            static_cast<uint64_t>(z[i + j]) + yi * x[j] + carry;
        z[i + j] = static_cast<uint32_t>(cur);
        carry = cur >> 32;
      }
      z[i + N] = static_cast<uint32_t>(carry);
    }
  }
}

// CIOS Montgomery multiplication at compile-time width: the exact
// Koç–Acar–Kaliski recurrence of MontgomeryContext::MontMulWordsGeneric,
// word-scanned in radix 2^64 when the platform has 128-bit multiplies.
// R = 2^(32N) either way, so the canonical result is identical.
template <size_t N>
void MontMulN(uint32_t* z, const uint32_t* x, const uint32_t* y,
              const uint32_t* mod, uint64_t n0_inv64) {
  static_assert(N % 2 == 0, "fixed kernels require an even limb count");
  if constexpr (detail::kHasWideMul) {
#if defined(__SIZEOF_INT128__)
    using detail::u128;
    constexpr size_t H = N / 2;
    uint64_t a[H], b[H], n[H], t[H + 2];
    detail::Compose64<N>(x, a);
    detail::Compose64<N>(y, b);
    detail::Compose64<N>(mod, n);
    for (size_t i = 0; i < H + 2; ++i) t[i] = 0;
    for (size_t i = 0; i < H; ++i) {
      // Multiplication step: t += a * b[i].
      u128 carry = 0;
      const uint64_t bi = b[i];
      for (size_t j = 0; j < H; ++j) {
        const u128 cur = static_cast<u128>(a[j]) * bi + t[j] + carry;
        t[j] = static_cast<uint64_t>(cur);
        carry = cur >> 64;
      }
      u128 cur = static_cast<u128>(t[H]) + carry;
      t[H] = static_cast<uint64_t>(cur);
      t[H + 1] = static_cast<uint64_t>(cur >> 64);

      // Reduction step: m makes the low word of t vanish (mod 2^64).
      const uint64_t m = t[0] * n0_inv64;
      cur = static_cast<u128>(t[0]) + static_cast<u128>(m) * n[0];
      carry = cur >> 64;
      for (size_t j = 1; j < H; ++j) {
        cur = static_cast<u128>(m) * n[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(cur);
        carry = cur >> 64;
      }
      cur = static_cast<u128>(t[H]) + carry;
      t[H - 1] = static_cast<uint64_t>(cur);
      t[H] = t[H + 1] + static_cast<uint64_t>(cur >> 64);
    }

    // Final conditional subtraction: the loop guarantees t < 2n.
    bool ge = t[H] != 0;
    if (!ge) {
      ge = true;
      for (size_t i = H; i-- > 0;) {
        if (t[i] != n[i]) {
          ge = t[i] > n[i];
          break;
        }
      }
    }
    uint64_t r[H];
    if (ge) {
      uint64_t borrow = 0;
      for (size_t i = 0; i < H; ++i) {
        const u128 diff = static_cast<u128>(t[i]) - n[i] - borrow;
        r[i] = static_cast<uint64_t>(diff);
        borrow = static_cast<uint64_t>(diff >> 64) & 1;
      }
    } else {
      for (size_t i = 0; i < H; ++i) r[i] = t[i];
    }
    detail::Decompose64<N>(r, z);
#endif
  } else {
    // Radix-2^32 CIOS with a compile-time trip count and a stack buffer —
    // the generic recurrence minus allocation and dynamic sizing.
    const uint32_t n0_inv32 = static_cast<uint32_t>(n0_inv64);
    uint32_t t[N + 2];
    for (size_t i = 0; i < N + 2; ++i) t[i] = 0;
    for (size_t i = 0; i < N; ++i) {
      uint64_t carry = 0;
      const uint64_t yi = y[i];
      for (size_t j = 0; j < N; ++j) {
        const uint64_t cur = static_cast<uint64_t>(t[j]) + yi * x[j] + carry;
        t[j] = static_cast<uint32_t>(cur);
        carry = cur >> 32;
      }
      uint64_t cur = static_cast<uint64_t>(t[N]) + carry;
      t[N] = static_cast<uint32_t>(cur);
      t[N + 1] = static_cast<uint32_t>(cur >> 32);

      const uint32_t m = t[0] * n0_inv32;
      cur = static_cast<uint64_t>(t[0]) + static_cast<uint64_t>(m) * mod[0];
      carry = cur >> 32;
      for (size_t j = 1; j < N; ++j) {
        cur = static_cast<uint64_t>(m) * mod[j] + t[j] + carry;
        t[j - 1] = static_cast<uint32_t>(cur);
        carry = cur >> 32;
      }
      cur = static_cast<uint64_t>(t[N]) + carry;
      t[N - 1] = static_cast<uint32_t>(cur);
      t[N] = t[N + 1] + static_cast<uint32_t>(cur >> 32);
    }
    bool ge = t[N] != 0;
    if (!ge) {
      ge = true;
      for (size_t i = N; i-- > 0;) {
        if (t[i] != mod[i]) {
          ge = t[i] > mod[i];
          break;
        }
      }
    }
    if (ge) {
      SubN<N>(z, t, mod);
    } else {
      for (size_t i = 0; i < N; ++i) z[i] = t[i];
    }
  }
}

// Montgomery squaring. Currently delegates to MontMulN — squaring yields
// the same canonical value by any correct method, so a dedicated
// half-cross-product kernel can drop in later without a semantic change.
// Kept as its own dispatch entry (and its own symbol) for that reason.
template <size_t N>
void MontSqrN(uint32_t* z, const uint32_t* x, const uint32_t* mod,
              uint64_t n0_inv64) {
  MontMulN<N>(z, x, x, mod, n0_inv64);
}

}  // namespace flb::mpint::fixed

#endif  // FLB_MPINT_FIXED_KERNELS_H_
