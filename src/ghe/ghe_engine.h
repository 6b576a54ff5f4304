// GheEngine — the paper's GPU-HE layer (§IV-A).
//
// Exposes the Table I API surface as batched ("vectorized") operations over
// arrays of multi-precision integers, executed on the simulated device:
//
//   add/sub/mul/div/mod       — elementwise multi-precision arithmetic
//   mod_inv/mod_mul/mod_pow   — modular kernels (Montgomery-based)
//   Paillier::{encrypt,decrypt,add}, RSA::{encrypt,decrypt,mul}
//
// Every batch call becomes one kernel launch: each array element is served
// by T = s/x device threads (Algorithm 2's decomposition, x words per
// thread), the host body computes the real results (bit-exact with the
// parallel kernel — see parallel_montgomery tests), and the device charges
// modeled kernel + PCIe time to the SimClock.
//
// Model* variants run the identical launch geometry without a body; the FL
// epoch benches use them to price millions of HE ops without executing
// millions of 4096-bit exponentiations (DESIGN.md §1). Tests pin Model* op
// counts to the counters observed on the real path.

#ifndef FLB_GHE_GHE_ENGINE_H_
#define FLB_GHE_GHE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/crypto/paillier.h"
#include "src/crypto/rsa.h"
#include "src/gpusim/device.h"
#include "src/mpint/bigint.h"

namespace flb::common {
class ThreadPool;
}  // namespace flb::common

namespace flb::ghe {

using mpint::BigInt;

struct GheConfig {
  // x in Algorithm 2: words of each operand held per device thread. The
  // thread count per element is s/x (adjusted down to a divisor of s).
  int words_per_thread = 4;
  // Registers a kernel thread needs per held word (operand slices + the
  // working accumulator slice).
  int registers_per_word = 6;
  int base_registers = 24;
  // Divergent branch regions in the modular kernels (window selection +
  // final conditional subtraction). The resource manager combines them when
  // branch combining is on; the HAFLO baseline leaves them unmanaged.
  int divergent_branches = 2;
  // Device streams for batch execution. 1 = the original fully synchronous
  // H2D → kernel → D2H path. N > 1 cuts each batch into N chunks issued
  // round-robin across N streams, so chunk k's H2D overlaps chunk k-1's
  // kernel and chunk k-2's D2H on the device timeline (§V / Fig. 4 overlap,
  // HAFLO-style streamed staging).
  int streams = 1;
  // When true (default) the engine prices both schedules first and only
  // chunks when the streamed timeline is strictly faster — small or
  // kernel-bound batches keep the one-launch path, so enabling streams can
  // never slow a workload down. Tests disable this to force chunking.
  bool adaptive_chunking = true;
  // Chunks issued per stream on the chunked path. 1 = one chunk per stream
  // (each stream runs exactly one H2D → kernel → D2H pipeline). Higher
  // values slice the batch finer, which fills pipeline bubbles on large
  // batches at the price of more per-chunk launch/transfer latency — the
  // chunk-size knob the auto-tuner searches.
  int chunks_per_stream = 1;
  // Host thread pool the batch bodies run on (element-parallel, bit-exact at
  // any thread count). nullptr = the process-global pool. Host parallelism
  // only changes wall-clock time: the modeled device timeline charges the
  // same simulated cost regardless.
  common::ThreadPool* host_pool = nullptr;
};

// Telemetry for the most recent batch call (chunked or not).
struct GheBatchStats {
  int chunks = 1;
  int streams = 1;
  bool async = false;  // true when the batch ran chunked across streams
  // Modeled batch latency from first H2D byte to last D2H byte.
  double makespan_seconds = 0.0;
  double kernel_busy_seconds = 0.0;
  double transfer_busy_seconds = 0.0;
  // What the one-launch synchronous path would have cost, and how much the
  // stream overlap saved against it (0 when the batch ran synchronously).
  double serial_seconds = 0.0;
  double overlap_saved_seconds = 0.0;
};

// Limb multiply-accumulates for one s-limb CIOS Montgomery multiplication.
uint64_t MontMulLimbOps(size_t s);
// Montgomery multiplications in one sliding-window exponentiation with an
// exp_bits-bit exponent (squarings + window multiplies + table build).
uint64_t EstimateModPowMontMuls(int exp_bits);

// Limb operations of one Paillier op for |n| = key_bits, over the n^2
// ciphertext limbs. The one price list for both execution paths: the GPU
// launch model charges it through the device, the CPU cost model through
// beta_cpu (Eq. 10), so both act on the same op counts.
//
// Encrypt: r^n mod n^2 (an n-bit exponent) plus the (n+1)^m fast path.
uint64_t PaillierEncryptLimbOps(int key_bits);
// Decrypt: with CRT, two half-width exponentiations over half-width
// moduli; without, one full exponentiation mod n^2.
uint64_t PaillierDecryptLimbOps(int key_bits, bool crt = true);
// Ciphertext add: one ModMul mod n^2.
uint64_t PaillierAddLimbOps(int key_bits);
// Plaintext add (g = n+1 path): one multiply plus one ModMul.
uint64_t PaillierAddPlainLimbOps(int key_bits);
// Scalar multiply: one exponentiation by an exp_bits-bit scalar.
uint64_t PaillierScalarMulLimbOps(int key_bits, int exp_bits);

class GheEngine {
 public:
  GheEngine(std::shared_ptr<gpusim::Device> device, GheConfig config = {});

  gpusim::Device& device() { return *device_; }
  const GheConfig& config() const { return config_; }
  // Re-targets the stream count for subsequent batches (clamped to >= 1).
  // Streams are created on the device lazily, on first chunked batch.
  void set_streams(int streams);
  // Re-targets the chunk granularity for subsequent batches (clamped >= 1).
  void set_chunks_per_stream(int chunks);

  // ---- Table I: fundamental vector arithmetic -------------------------------
  // Elementwise over equal-length arrays.
  Result<std::vector<BigInt>> Add(const std::vector<BigInt>& a,
                                  const std::vector<BigInt>& b);
  // Elementwise a-b; requires a[i] >= b[i].
  Result<std::vector<BigInt>> Sub(const std::vector<BigInt>& a,
                                  const std::vector<BigInt>& b);
  Result<std::vector<BigInt>> Mul(const std::vector<BigInt>& a,
                                  const std::vector<BigInt>& b);
  // Elementwise a/b and a%b; error on any zero divisor.
  Result<std::vector<BigInt>> Div(const std::vector<BigInt>& a,
                                  const std::vector<BigInt>& b);
  Result<std::vector<BigInt>> Mod(const std::vector<BigInt>& a,
                                  const BigInt& n);

  // ---- Table I: modular kernels ---------------------------------------------
  Result<std::vector<BigInt>> ModInv(const std::vector<BigInt>& a,
                                     const BigInt& n);
  Result<std::vector<BigInt>> ModMul(const std::vector<BigInt>& a,
                                     const std::vector<BigInt>& b,
                                     const BigInt& n);
  Result<std::vector<BigInt>> ModPow(const std::vector<BigInt>& x,
                                     const std::vector<BigInt>& p,
                                     const BigInt& n);

  // ---- Table I: Paillier / RSA ----------------------------------------------
  Result<std::vector<BigInt>> PaillierEncrypt(
      const crypto::PaillierContext& ctx, const std::vector<BigInt>& ms,
      Rng& rng);
  Result<std::vector<BigInt>> PaillierDecrypt(
      const crypto::PaillierContext& ctx, const std::vector<BigInt>& cs);
  Result<std::vector<BigInt>> PaillierAdd(const crypto::PaillierContext& ctx,
                                          const std::vector<BigInt>& c1,
                                          const std::vector<BigInt>& c2);
  // Elementwise E(m_i) + k_i for plaintext k_i (one (n+1)^k multiply each).
  Result<std::vector<BigInt>> PaillierAddPlain(
      const crypto::PaillierContext& ctx, const std::vector<BigInt>& cs,
      const std::vector<BigInt>& ks);
  // Elementwise E(m_i)^{k_i} = E(k_i * m_i) — a full modular exponentiation
  // per element.
  Result<std::vector<BigInt>> PaillierScalarMul(
      const crypto::PaillierContext& ctx, const std::vector<BigInt>& cs,
      const std::vector<BigInt>& ks);
  Result<std::vector<BigInt>> RsaEncrypt(const crypto::RsaContext& ctx,
                                         const std::vector<BigInt>& ms);
  Result<std::vector<BigInt>> RsaDecrypt(const crypto::RsaContext& ctx,
                                         const std::vector<BigInt>& cs);
  Result<std::vector<BigInt>> RsaMul(const crypto::RsaContext& ctx,
                                     const std::vector<BigInt>& c1,
                                     const std::vector<BigInt>& c2);

  // ---- Table I: key generation on the device --------------------------------
  // Paillier/RSA key generation with the prime search executed as a device
  // kernel: each warp owns a candidate (per-thread random number generators,
  // paper §IV-A3), trial division prunes, Miller-Rabin witnesses run as
  // modular exponentiations. Host-side arithmetic produces the actual key
  // material (bit-exact); the launch prices the parallel search.
  Result<crypto::PaillierKeyPair> PaillierKeyGen(int key_bits, Rng& rng);
  Result<crypto::RsaKeyPair> RsaKeyGen(int key_bits, Rng& rng);

  // ---- Timing-only models (identical launch geometry, no body) --------------
  // key_bits is the Paillier |n|; counts are elements in the batch.
  Result<gpusim::LaunchResult> ModelPaillierEncrypt(int key_bits,
                                                    int64_t count);
  Result<gpusim::LaunchResult> ModelPaillierDecrypt(int key_bits,
                                                    int64_t count,
                                                    bool crt = true);
  Result<gpusim::LaunchResult> ModelPaillierAdd(int key_bits, int64_t count);
  Result<gpusim::LaunchResult> ModelPaillierAddPlain(int key_bits,
                                                     int64_t count);
  // exp_bits: bit length of the plaintext scalar.
  Result<gpusim::LaunchResult> ModelPaillierScalarMul(int key_bits,
                                                      int64_t count,
                                                      int exp_bits);
  // Host<->device transfer charges for `bytes` (exposed so callers can model
  // staging of packed batches).
  double ModelTransferToDevice(size_t bytes);
  double ModelTransferFromDevice(size_t bytes);

  // Generic timing-only batch: `count` elements of `s` limbs, each costing
  // `limb_ops_per_elt` limb operations, moving in/out bytes over PCIe. The
  // HeService prices its modeled HE ops through this so they ride the same
  // chunked multi-stream path as the real batches.
  Result<gpusim::LaunchResult> ModelBatch(const char* name, int64_t count,
                                          size_t s, uint64_t limb_ops_per_elt,
                                          size_t bytes_in, size_t bytes_out);

  // Launch diagnostics of the most recent kernel (utilization telemetry).
  // For a chunked batch this aggregates the chunks: sim_seconds is the
  // window makespan, occupancy/utilization are time-weighted means, waves
  // are summed.
  const gpusim::LaunchResult& last_launch() const { return last_launch_; }
  // Scheduling diagnostics of the most recent batch call.
  const GheBatchStats& last_batch() const { return last_batch_; }

 private:
  // Shared launch path: one kernel over `count` elements of `s` limbs, each
  // costing `mont_muls` Montgomery multiplications (or raw `limb_ops` when
  // mont_muls == 0), moving in/out bytes over PCIe. With config_.streams > 1
  // the batch is chunked across streams when the streamed timeline prices
  // faster (always, when adaptive_chunking is off).
  Result<gpusim::LaunchResult> LaunchBatch(const char* name, int64_t count,
                                           size_t s, uint64_t limb_ops_per_elt,
                                           size_t bytes_in, size_t bytes_out,
                                           std::function<void()> body);
  Result<gpusim::LaunchResult> LaunchBatchAsync(
      const gpusim::KernelLaunch& proto, int64_t count, int64_t tpe,
      size_t bytes_in, size_t bytes_out, double serial_seconds,
      std::function<void()> body);

  gpusim::KernelDemand DemandFor(size_t s, int threads_per_elt) const;
  int ThreadsPerElement(size_t s) const;
  // The pool batch bodies run on (config override or the global pool).
  common::ThreadPool& host_pool() const;
  // Wraps a batch body with host-side wall-clock + pool-stat telemetry
  // (flb.host.* metrics and the host/threads trace track).
  std::function<void()> InstrumentBody(const char* name,
                                       std::function<void()> body);

  std::shared_ptr<gpusim::Device> device_;
  GheConfig config_;
  gpusim::LaunchResult last_launch_;
  GheBatchStats last_batch_;
  // Device streams owned by this engine, created lazily.
  std::vector<gpusim::StreamId> stream_ids_;
};

}  // namespace flb::ghe

#endif  // FLB_GHE_GHE_ENGINE_H_
