#include "src/mpint/fixed_kernels.h"

#include <iterator>

namespace flb::mpint::fixed {

namespace {

template <size_t N>
constexpr KernelOps MakeOps() {
  KernelOps ops;
  ops.limbs = N;
  ops.add = &AddN<N>;
  ops.sub = &SubN<N>;
  ops.mul_pre = &MulPreN<N>;
  ops.mont_mul = &MontMulN<N>;
  ops.mont_sqr = &MontSqrN<N>;
  return ops;
}

// One instantiation per limb count on the Paillier hot path. A key of
// 2^k bits needs contexts at 2^k/32 limbs (n, p^2, q^2) and 2^k/16 limbs
// (n^2); covering 64..4096-bit keys gives the power-of-two ladder 2..256.
// RSA and Damgard–Jurik contexts at the same widths dispatch for free.
constexpr KernelOps kKernelTable[] = {
    MakeOps<2>(),  MakeOps<4>(),  MakeOps<8>(),   MakeOps<16>(),
    MakeOps<32>(), MakeOps<64>(), MakeOps<128>(), MakeOps<256>(),
};

}  // namespace

const KernelOps* FindKernel(size_t limbs) {
  for (const KernelOps& ops : kKernelTable) {
    if (ops.limbs == limbs) return &ops;
  }
  return nullptr;
}

std::vector<size_t> SupportedWidths() {
  std::vector<size_t> widths;
  widths.reserve(std::size(kKernelTable));
  for (const KernelOps& ops : kKernelTable) widths.push_back(ops.limbs);
  return widths;
}

uint64_t NegInverseMod2p64(uint64_t n0) {
  uint64_t x = n0;  // correct to 3 bits for odd n0 (n0*n0 ≡ 1 mod 8)
  for (int i = 0; i < 6; ++i) x *= 2 - n0 * x;
  return 0u - x;
}

}  // namespace flb::mpint::fixed
