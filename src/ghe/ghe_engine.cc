#include "src/ghe/ghe_engine.h"

#include <algorithm>
#include <array>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/crypto/montgomery.h"
#include "src/ghe/parallel_montgomery.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flb::ghe {

namespace {

// Ciphertext (mod n^2) limbs for |n| = key_bits.
size_t CiphertextLimbs(int key_bits) {
  crypto::PaillierPublicKey pub;
  pub.key_bits = key_bits;
  return pub.CiphertextWords();
}

// Serialized size of `count` values of `s` limbs each.
size_t BatchBytes(int64_t count, size_t s) {
  return static_cast<size_t>(count) * s * sizeof(uint32_t);
}

Status CheckSameSize(size_t a, size_t b, const char* what) {
  if (a != b) {
    return Status::InvalidArgument(std::string(what) +
                                   ": batch sizes differ");
  }
  return Status::OK();
}

// Staging buffers are rounded to page granularity so repeated chunked
// batches of slightly different sizes reuse pool slots instead of
// fragmenting the device heap.
size_t RoundUpPage(size_t bytes) {
  constexpr size_t kPage = 4096;
  return (bytes + kPage - 1) / kPage * kPage;
}

// Elements in chunk k of `count` split into `nchunks` near-equal pieces.
int64_t ChunkCount(int64_t count, int nchunks, int k) {
  const int64_t base = count / nchunks;
  const int64_t rem = count % nchunks;
  return base + (k < rem ? 1 : 0);
}

// Makespan of the chunked schedule under the device's async scheduling
// rule: in-order streams, one compute engine, one DMA engine per PCIe
// direction (shared when the link is half duplex). chunks[k] holds the
// {h2d, kernel, d2h} durations of chunk k; chunks are issued round-robin.
double PipelinedMakespan(const std::vector<std::array<double, 3>>& chunks,
                         int streams, bool full_duplex) {
  std::vector<double> ready(static_cast<size_t>(streams), 0.0);
  double h2d_free = 0.0, compute_free = 0.0, d2h_free = 0.0;
  double makespan = 0.0;
  for (size_t k = 0; k < chunks.size(); ++k) {
    double& r = ready[k % streams];
    double start = std::max(r, h2d_free);
    if (!full_duplex) start = std::max(start, d2h_free);
    r = start + chunks[k][0];
    h2d_free = r;
    if (!full_duplex) d2h_free = r;

    start = std::max(r, compute_free);
    r = start + chunks[k][1];
    compute_free = r;

    start = std::max(r, d2h_free);
    if (!full_duplex) start = std::max(start, h2d_free);
    r = start + chunks[k][2];
    d2h_free = r;
    if (!full_duplex) h2d_free = r;

    makespan = std::max(makespan, r);
  }
  return makespan;
}

}  // namespace

uint64_t MontMulLimbOps(size_t s) {
  // CIOS: per outer word, s mul-adds (multiply step) + s mul-adds (reduce
  // step) + ~6 bookkeeping ops; plus the conditional subtraction.
  return static_cast<uint64_t>(s) * (2 * s + 6) + s;
}

uint64_t EstimateModPowMontMuls(int exp_bits) {
  if (exp_bits <= 0) return 1;
  const int w = crypto::ChooseWindowBits(exp_bits);
  const uint64_t squarings = exp_bits;
  const uint64_t window_muls = exp_bits / (w + 1) + 1;
  const uint64_t table = (uint64_t{1} << (w - 1)) + 1;
  const uint64_t conversions = 2;  // ToMont / FromMont
  return squarings + window_muls + table + conversions;
}

uint64_t PaillierEncryptLimbOps(int key_bits) {
  return (EstimateModPowMontMuls(key_bits) + 3) *
         MontMulLimbOps(CiphertextLimbs(key_bits));
}

uint64_t PaillierDecryptLimbOps(int key_bits, bool crt) {
  const size_t s2 = CiphertextLimbs(key_bits);
  if (!crt) return EstimateModPowMontMuls(key_bits) * MontMulLimbOps(s2);
  return 2 * EstimateModPowMontMuls(key_bits / 2) * MontMulLimbOps(s2 / 2);
}

uint64_t PaillierAddLimbOps(int key_bits) {
  return 3 * MontMulLimbOps(CiphertextLimbs(key_bits));
}

uint64_t PaillierAddPlainLimbOps(int key_bits) {
  return 4 * MontMulLimbOps(CiphertextLimbs(key_bits));
}

uint64_t PaillierScalarMulLimbOps(int key_bits, int exp_bits) {
  return EstimateModPowMontMuls(exp_bits) *
         MontMulLimbOps(CiphertextLimbs(key_bits));
}

GheEngine::GheEngine(std::shared_ptr<gpusim::Device> device, GheConfig config)
    : device_(std::move(device)), config_(config) {
  FLB_CHECK(device_ != nullptr);
  FLB_CHECK(config_.words_per_thread >= 1);
}

int GheEngine::ThreadsPerElement(size_t s) const {
  const int target = std::max<int>(
      1, static_cast<int>(s) / config_.words_per_thread);
  return LargestValidThreadCount(s, target);
}

gpusim::KernelDemand GheEngine::DemandFor(size_t s, int threads_per_elt) const {
  gpusim::KernelDemand demand;
  const int x = static_cast<int>(s) / std::max(threads_per_elt, 1);
  // Per-thread registers: the operand slices (x words each of a, b, n, t)
  // plus each thread's share of the sliding-window table, which grows with
  // the operand width — the reason SM occupancy decays at larger key sizes
  // (paper Fig. 6 commentary).
  demand.registers_per_thread = config_.base_registers +
                                config_.registers_per_word * x +
                                static_cast<int>(s) / 4;
  demand.divergent_branches = config_.divergent_branches;
  demand.shared_mem_per_block = 0;
  return demand;
}

void GheEngine::set_streams(int streams) {
  config_.streams = std::max(1, streams);
}

void GheEngine::set_chunks_per_stream(int chunks) {
  config_.chunks_per_stream = std::max(1, chunks);
}

common::ThreadPool& GheEngine::host_pool() const {
  return config_.host_pool != nullptr ? *config_.host_pool
                                      : common::ThreadPool::Global();
}

std::function<void()> GheEngine::InstrumentBody(const char* name,
                                                std::function<void()> body) {
  if (!body) return body;
  return [this, name, inner = std::move(body)] {
    common::ThreadPool& tp = host_pool();
    const auto before = tp.stats();
    WallTimer timer;
    inner();
    const double wall = timer.ElapsedSeconds();
    const auto after = tp.stats();
    auto& metrics = obs::MetricsRegistry::Global();
    const std::string label = std::string("op=") + name;
    metrics.Count("flb.host.pool_tasks",
                  static_cast<double>(after.tasks - before.tasks), label);
    metrics.Count("flb.host.pool_steals",
                  static_cast<double>(after.steals - before.steals), label);
    metrics.Observe("flb.host.batch_wall_seconds", wall, label);
    metrics.Set("flb.host.threads", tp.num_threads());
    auto& rec = obs::TraceRecorder::Global();
    if (rec.enabled()) {
      rec.Instant(rec.RegisterTrack("host", "threads"), "host.batch", "host",
                  device_->TimelineNow(),
                  {obs::Arg("op", name), obs::Arg("wall_seconds", wall),
                   obs::Arg("threads", tp.num_threads())});
    }
  };
}

Result<gpusim::LaunchResult> GheEngine::LaunchBatch(
    const char* name, int64_t count, size_t s, uint64_t limb_ops_per_elt,
    size_t bytes_in, size_t bytes_out, std::function<void()> body) {
  if (count <= 0) {
    return Status::InvalidArgument(std::string(name) + ": empty batch");
  }
  body = InstrumentBody(name, std::move(body));
  const int tpe = ThreadsPerElement(s);
  gpusim::KernelLaunch launch;
  launch.name = name;
  launch.total_threads = count * tpe;
  launch.ops_per_thread = limb_ops_per_elt / std::max(tpe, 1);
  launch.demand = DemandFor(s, tpe);

  const int streams = std::max(1, config_.streams);
  if (streams > 1 && count >= streams) {
    const int nchunks = static_cast<int>(std::min<int64_t>(
        count,
        static_cast<int64_t>(streams) *
            std::max(1, config_.chunks_per_stream)));
    // What the one-launch synchronous path would cost.
    FLB_ASSIGN_OR_RETURN(const gpusim::LaunchResult serial_est,
                         device_->EstimateLaunch(launch));
    const double serial_seconds = device_->TransferSeconds(bytes_in) +
                                  serial_est.sim_seconds +
                                  device_->TransferSeconds(bytes_out);
    bool chunk = true;
    double pipelined_seconds = 0.0;
    if (config_.adaptive_chunking) {
      // Price the chunked schedule first: per-transfer PCIe latency and
      // per-chunk launch latency mean small or kernel-bound batches lose
      // by splitting, so only chunk when the pipeline is strictly faster.
      std::vector<std::array<double, 3>> plan;
      plan.reserve(static_cast<size_t>(nchunks));
      int64_t done = 0;
      size_t in_done = 0, out_done = 0;
      for (int k = 0; k < nchunks; ++k) {
        const int64_t n = ChunkCount(count, nchunks, k);
        if (n == 0) continue;
        const int64_t next = done + n;
        const size_t in_next = bytes_in * next / count;
        const size_t out_next = bytes_out * next / count;
        gpusim::KernelLaunch piece = launch;
        piece.total_threads = n * tpe;
        FLB_ASSIGN_OR_RETURN(const gpusim::LaunchResult est,
                             device_->EstimateLaunch(piece));
        plan.push_back({device_->TransferSeconds(in_next - in_done),
                        est.sim_seconds,
                        device_->TransferSeconds(out_next - out_done)});
        done = next;
        in_done = in_next;
        out_done = out_next;
      }
      pipelined_seconds = PipelinedMakespan(plan, streams,
                                            device_->spec().pcie_full_duplex);
      chunk = pipelined_seconds < serial_seconds;
    }
    // The scheduler's pricing decision, visible on the trace timeline and
    // countable in the metrics snapshot.
    auto& rec = obs::TraceRecorder::Global();
    if (rec.enabled()) {
      rec.Instant(rec.RegisterTrack("ghe", "scheduler"), "ghe.chunk_decision",
                  "ghe", device_->TimelineNow(),
                  {obs::Arg("op", name), obs::Arg("count", count),
                   obs::Arg("serial_seconds", serial_seconds),
                   obs::Arg("pipelined_seconds", pipelined_seconds),
                   obs::Arg("adaptive", config_.adaptive_chunking),
                   obs::Arg("chunked", chunk)});
    }
    obs::MetricsRegistry::Global().Count(
        "flb.ghe.chunk_decisions", 1,
        chunk ? "choice=chunked" : "choice=serial");
    if (chunk) {
      return LaunchBatchAsync(launch, count, tpe, bytes_in, bytes_out,
                              serial_seconds, std::move(body));
    }
  }

  // Synchronous path: H2D, one kernel, D2H, each charged immediately.
  const double in_sec = device_->CopyToDevice(bytes_in);
  launch.body = std::move(body);
  FLB_ASSIGN_OR_RETURN(last_launch_, device_->Launch(launch));
  const double out_sec = device_->CopyFromDevice(bytes_out);

  last_batch_ = GheBatchStats{};
  last_batch_.makespan_seconds = in_sec + last_launch_.sim_seconds + out_sec;
  last_batch_.kernel_busy_seconds = last_launch_.sim_seconds;
  last_batch_.transfer_busy_seconds = in_sec + out_sec;
  last_batch_.serial_seconds = last_batch_.makespan_seconds;
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.Count("flb.ghe.batches", 1, "path=serial");
  metrics.Observe("flb.ghe.batch_makespan_seconds",
                  last_batch_.makespan_seconds, "path=serial");
  return last_launch_;
}

Result<gpusim::LaunchResult> GheEngine::LaunchBatchAsync(
    const gpusim::KernelLaunch& proto, int64_t count, int64_t tpe,
    size_t bytes_in, size_t bytes_out, double serial_seconds,
    std::function<void()> body) {
  const int streams = std::max(1, config_.streams);
  // Mirror of LaunchBatch's chunk plan: the pricing and the execution must
  // split the batch identically or the adaptive decision prices the wrong
  // schedule.
  const int nchunks = static_cast<int>(std::min<int64_t>(
      count,
      static_cast<int64_t>(streams) * std::max(1, config_.chunks_per_stream)));
  while (static_cast<int>(stream_ids_.size()) < streams) {
    stream_ids_.push_back(stream_ids_.empty() ? gpusim::kDefaultStream
                                              : device_->CreateStream());
  }

  // Per-stream staging buffers: input + output slices of the largest chunk,
  // page-rounded so successive batches reuse the same pool slots.
  auto& rm = device_->resource_manager();
  const int64_t max_chunk = ChunkCount(count, nchunks, 0);
  const size_t stage_bytes = RoundUpPage(
      (bytes_in + bytes_out) * static_cast<size_t>(max_chunk) /
          static_cast<size_t>(count) +
      1);
  std::vector<gpusim::ResourceManager::DeviceAddress> staging;
  staging.reserve(static_cast<size_t>(streams));
  for (int i = 0; i < streams; ++i) {
    FLB_ASSIGN_OR_RETURN(auto addr, rm.Alloc(stage_bytes));
    staging.push_back(addr);
  }

  gpusim::LaunchResult agg{};
  double weight = 0.0, occ_sum = 0.0, util_sum = 0.0;
  double kernel_busy = 0.0, transfer_busy = 0.0;
  int chunks = 0;
  int64_t done = 0;
  size_t in_done = 0, out_done = 0;
  for (int k = 0; k < nchunks; ++k) {
    const int64_t n = ChunkCount(count, nchunks, k);
    if (n == 0) continue;
    const int64_t next = done + n;
    const size_t in_next = bytes_in * next / count;
    const size_t out_next = bytes_out * next / count;
    const gpusim::StreamId sid = stream_ids_[static_cast<size_t>(k % streams)];

    FLB_ASSIGN_OR_RETURN(const gpusim::CopyResult h2d,
                         device_->CopyToDeviceAsync(in_next - in_done, sid));
    gpusim::KernelLaunch piece = proto;
    piece.total_threads = n * tpe;
    // The host body computes the whole batch in one pass; it rides the
    // first chunk. Arithmetic is immediate either way — only the modeled
    // schedule is deferred — so chunking cannot change the results.
    if (chunks == 0) piece.body = std::move(body);
    FLB_ASSIGN_OR_RETURN(const gpusim::LaunchResult r,
                         device_->LaunchAsync(piece, sid));
    FLB_ASSIGN_OR_RETURN(const gpusim::CopyResult d2h,
                         device_->CopyFromDeviceAsync(out_next - out_done, sid));

    agg.waves += r.waves;
    agg.block_threads = r.block_threads;
    agg.grid_blocks += r.grid_blocks;
    agg.limiting_resource = r.limiting_resource;
    occ_sum += r.occupancy * r.sim_seconds;
    util_sum += r.sm_utilization * r.sim_seconds;
    weight += r.sim_seconds;
    kernel_busy += r.sim_seconds;
    transfer_busy += h2d.seconds + d2h.seconds;
    ++chunks;
    done = next;
    in_done = in_next;
    out_done = out_next;
  }

  const double makespan = device_->Synchronize();
  for (auto addr : staging) {
    FLB_RETURN_IF_ERROR(rm.Free(addr));
  }

  agg.sim_seconds = makespan;
  agg.end_seconds = makespan;
  agg.occupancy = weight > 0.0 ? occ_sum / weight : 0.0;
  agg.sm_utilization = weight > 0.0 ? util_sum / weight : 0.0;
  last_launch_ = agg;

  last_batch_ = GheBatchStats{};
  last_batch_.chunks = chunks;
  last_batch_.streams = streams;
  last_batch_.async = true;
  last_batch_.makespan_seconds = makespan;
  last_batch_.kernel_busy_seconds = kernel_busy;
  last_batch_.transfer_busy_seconds = transfer_busy;
  last_batch_.serial_seconds = serial_seconds;
  last_batch_.overlap_saved_seconds = serial_seconds - makespan;
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.Count("flb.ghe.batches", 1, "path=chunked");
  metrics.Count("flb.ghe.chunks", chunks, "path=chunked");
  metrics.Count("flb.ghe.overlap_saved_seconds",
                last_batch_.overlap_saved_seconds, "path=chunked");
  metrics.Observe("flb.ghe.batch_makespan_seconds", makespan, "path=chunked");
  return last_launch_;
}

// ---------------------------------------------------------------------------
// Vector arithmetic
// ---------------------------------------------------------------------------

Result<std::vector<BigInt>> GheEngine::Add(const std::vector<BigInt>& a,
                                           const std::vector<BigInt>& b) {
  FLB_RETURN_IF_ERROR(CheckSameSize(a.size(), b.size(), "GheEngine::Add"));
  if (a.empty()) return std::vector<BigInt>{};
  size_t s = 1;
  for (const auto& v : a) s = std::max(s, v.WordCount());
  for (const auto& v : b) s = std::max(s, v.WordCount());
  std::vector<BigInt> out(a.size());
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.add", a.size(), s, /*limb_ops_per_elt=*/s,
                  BatchBytes(2 * a.size(), s), BatchBytes(a.size(), s + 1),
                  [&] {
                    host_pool().ParallelFor(
                        static_cast<int64_t>(a.size()),
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            out[i] = BigInt::Add(a[i], b[i]);
                          }
                        });
                  })
          .status());
  return out;
}

Result<std::vector<BigInt>> GheEngine::Sub(const std::vector<BigInt>& a,
                                           const std::vector<BigInt>& b) {
  FLB_RETURN_IF_ERROR(CheckSameSize(a.size(), b.size(), "GheEngine::Sub"));
  if (a.empty()) return std::vector<BigInt>{};
  size_t s = 1;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) {
      return Status::OutOfRange("GheEngine::Sub: unsigned underflow at index " +
                                std::to_string(i));
    }
    s = std::max(s, a[i].WordCount());
  }
  std::vector<BigInt> out(a.size());
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.sub", a.size(), s, s, BatchBytes(2 * a.size(), s),
                  BatchBytes(a.size(), s),
                  [&] {
                    host_pool().ParallelFor(
                        static_cast<int64_t>(a.size()),
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            out[i] = BigInt::Sub(a[i], b[i]);
                          }
                        });
                  })
          .status());
  return out;
}

Result<std::vector<BigInt>> GheEngine::Mul(const std::vector<BigInt>& a,
                                           const std::vector<BigInt>& b) {
  FLB_RETURN_IF_ERROR(CheckSameSize(a.size(), b.size(), "GheEngine::Mul"));
  if (a.empty()) return std::vector<BigInt>{};
  size_t s = 1;
  for (const auto& v : a) s = std::max(s, v.WordCount());
  for (const auto& v : b) s = std::max(s, v.WordCount());
  std::vector<BigInt> out(a.size());
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.mul", a.size(), s, /*limb_ops_per_elt=*/s * s,
                  BatchBytes(2 * a.size(), s), BatchBytes(a.size(), 2 * s),
                  [&] {
                    host_pool().ParallelFor(
                        static_cast<int64_t>(a.size()),
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            out[i] = BigInt::Mul(a[i], b[i]);
                          }
                        });
                  })
          .status());
  return out;
}

Result<std::vector<BigInt>> GheEngine::Div(const std::vector<BigInt>& a,
                                           const std::vector<BigInt>& b) {
  FLB_RETURN_IF_ERROR(CheckSameSize(a.size(), b.size(), "GheEngine::Div"));
  if (a.empty()) return std::vector<BigInt>{};
  size_t s = 1;
  for (const auto& v : a) s = std::max(s, v.WordCount());
  std::vector<BigInt> out(a.size());
  Status first_error;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.div", a.size(), s, /*limb_ops_per_elt=*/2 * s * s,
                  BatchBytes(2 * a.size(), s), BatchBytes(a.size(), s),
                  [&] {
                    first_error = common::ParallelForEachStatus(
                        host_pool(), a.size(), [&](size_t i) -> Status {
                          FLB_ASSIGN_OR_RETURN(out[i],
                                               BigInt::Div(a[i], b[i]));
                          return Status::OK();
                        });
                  })
          .status());
  FLB_RETURN_IF_ERROR(first_error);
  return out;
}

Result<std::vector<BigInt>> GheEngine::Mod(const std::vector<BigInt>& a,
                                           const BigInt& n) {
  if (a.empty()) return std::vector<BigInt>{};
  if (n.IsZero()) return Status::ArithmeticError("GheEngine::Mod: n == 0");
  const size_t s = std::max<size_t>(n.WordCount(), 1);
  std::vector<BigInt> out(a.size());
  Status first_error;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.mod", a.size(), s, /*limb_ops_per_elt=*/2 * s * s,
                  BatchBytes(a.size(), 2 * s), BatchBytes(a.size(), s),
                  [&] {
                    first_error = common::ParallelForEachStatus(
                        host_pool(), a.size(), [&](size_t i) -> Status {
                          FLB_ASSIGN_OR_RETURN(out[i], BigInt::Mod(a[i], n));
                          return Status::OK();
                        });
                  })
          .status());
  FLB_RETURN_IF_ERROR(first_error);
  return out;
}

Result<std::vector<BigInt>> GheEngine::ModInv(const std::vector<BigInt>& a,
                                              const BigInt& n) {
  if (a.empty()) return std::vector<BigInt>{};
  const size_t s = std::max<size_t>(n.WordCount(), 1);
  std::vector<BigInt> out(a.size());
  Status first_error;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.mod_inv", a.size(), s,
                  // Extended Euclid: ~2*bits iterations of O(s) work.
                  /*limb_ops_per_elt=*/static_cast<uint64_t>(4) * s * s * 32,
                  BatchBytes(a.size(), s), BatchBytes(a.size(), s),
                  [&] {
                    first_error = common::ParallelForEachStatus(
                        host_pool(), a.size(), [&](size_t i) -> Status {
                          FLB_ASSIGN_OR_RETURN(out[i],
                                               BigInt::ModInverse(a[i], n));
                          return Status::OK();
                        });
                  })
          .status());
  FLB_RETURN_IF_ERROR(first_error);
  return out;
}

Result<std::vector<BigInt>> GheEngine::ModMul(const std::vector<BigInt>& a,
                                              const std::vector<BigInt>& b,
                                              const BigInt& n) {
  FLB_RETURN_IF_ERROR(CheckSameSize(a.size(), b.size(), "GheEngine::ModMul"));
  if (a.empty()) return std::vector<BigInt>{};
  FLB_ASSIGN_OR_RETURN(auto ctx, crypto::MontgomeryContext::Create(n));
  const size_t s = ctx.num_limbs();
  std::vector<BigInt> out(a.size());
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.mod_mul", a.size(), s,
                  /*limb_ops_per_elt=*/3 * MontMulLimbOps(s),
                  BatchBytes(2 * a.size(), s), BatchBytes(a.size(), s),
                  [&] {
                    host_pool().ParallelFor(
                        static_cast<int64_t>(a.size()),
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            out[i] = ctx.ModMul(a[i] % n, b[i] % n);
                          }
                        });
                  })
          .status());
  return out;
}

Result<std::vector<BigInt>> GheEngine::ModPow(const std::vector<BigInt>& x,
                                              const std::vector<BigInt>& p,
                                              const BigInt& n) {
  FLB_RETURN_IF_ERROR(CheckSameSize(x.size(), p.size(), "GheEngine::ModPow"));
  if (x.empty()) return std::vector<BigInt>{};
  FLB_ASSIGN_OR_RETURN(auto ctx, crypto::MontgomeryContext::Create(n));
  const size_t s = ctx.num_limbs();
  int max_exp_bits = 1;
  for (const auto& e : p) max_exp_bits = std::max(max_exp_bits, e.BitLength());
  std::vector<BigInt> out(x.size());
  FLB_RETURN_IF_ERROR(
      LaunchBatch(
          "ghe.mod_pow", x.size(), s,
          EstimateModPowMontMuls(max_exp_bits) * MontMulLimbOps(s),
          BatchBytes(2 * x.size(), s), BatchBytes(x.size(), s),
          [&] {
            host_pool().ParallelFor(static_cast<int64_t>(x.size()),
                                    [&](int64_t lo, int64_t hi) {
                                      for (int64_t i = lo; i < hi; ++i) {
                                        out[i] = ctx.ModPow(x[i], p[i]);
                                      }
                                    });
          })
          .status());
  return out;
}

// ---------------------------------------------------------------------------
// Paillier / RSA batches
// ---------------------------------------------------------------------------

Result<std::vector<BigInt>> GheEngine::PaillierEncrypt(
    const crypto::PaillierContext& ctx, const std::vector<BigInt>& ms,
    Rng& rng) {
  if (ms.empty()) return std::vector<BigInt>{};
  const size_t s2 = ctx.pub().CiphertextWords();
  std::vector<BigInt> out(ms.size());
  Status first_error;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.paillier_encrypt", ms.size(), s2,
                  PaillierEncryptLimbOps(ctx.pub().key_bits),
                  BatchBytes(ms.size(), s2 / 2), BatchBytes(ms.size(), s2),
                  [&] {
                    auto r = ctx.EncryptBatch(ms, rng, &host_pool());
                    if (!r.ok()) {
                      first_error = r.status();
                      return;
                    }
                    out = std::move(r).value();
                  })
          .status());
  FLB_RETURN_IF_ERROR(first_error);
  return out;
}

Result<std::vector<BigInt>> GheEngine::PaillierDecrypt(
    const crypto::PaillierContext& ctx, const std::vector<BigInt>& cs) {
  if (cs.empty()) return std::vector<BigInt>{};
  const size_t s2 = ctx.pub().CiphertextWords();
  std::vector<BigInt> out(cs.size());
  Status first_error;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.paillier_decrypt", cs.size(), s2,
                  PaillierDecryptLimbOps(ctx.pub().key_bits),
                  BatchBytes(cs.size(), s2), BatchBytes(cs.size(), s2 / 2),
                  [&] {
                    auto r = ctx.DecryptBatch(cs, &host_pool());
                    if (!r.ok()) {
                      first_error = r.status();
                      return;
                    }
                    out = std::move(r).value();
                  })
          .status());
  FLB_RETURN_IF_ERROR(first_error);
  return out;
}

Result<std::vector<BigInt>> GheEngine::PaillierAdd(
    const crypto::PaillierContext& ctx, const std::vector<BigInt>& c1,
    const std::vector<BigInt>& c2) {
  FLB_RETURN_IF_ERROR(
      CheckSameSize(c1.size(), c2.size(), "GheEngine::PaillierAdd"));
  if (c1.empty()) return std::vector<BigInt>{};
  const size_t s2 = ctx.pub().CiphertextWords();
  std::vector<BigInt> out(c1.size());
  Status first_error;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.paillier_add", c1.size(), s2,
                  PaillierAddLimbOps(ctx.pub().key_bits),
                  BatchBytes(2 * c1.size(), s2), BatchBytes(c1.size(), s2),
                  [&] {
                    auto c = ctx.AddBatch(c1, c2, &host_pool());
                    if (!c.ok()) {
                      first_error = c.status();
                      return;
                    }
                    out = std::move(c).value();
                  })
          .status());
  FLB_RETURN_IF_ERROR(first_error);
  return out;
}

Result<std::vector<BigInt>> GheEngine::PaillierAddPlain(
    const crypto::PaillierContext& ctx, const std::vector<BigInt>& cs,
    const std::vector<BigInt>& ks) {
  FLB_RETURN_IF_ERROR(
      CheckSameSize(cs.size(), ks.size(), "GheEngine::PaillierAddPlain"));
  if (cs.empty()) return std::vector<BigInt>{};
  const size_t s2 = ctx.pub().CiphertextWords();
  std::vector<BigInt> out(cs.size());
  Status first_error;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.paillier_add_plain", cs.size(), s2,
                  PaillierAddPlainLimbOps(ctx.pub().key_bits),
                  BatchBytes(cs.size(), s2) + BatchBytes(ks.size(), s2 / 2),
                  BatchBytes(cs.size(), s2),
                  [&] {
                    auto c = ctx.AddPlainBatch(cs, ks, &host_pool());
                    if (!c.ok()) {
                      first_error = c.status();
                      return;
                    }
                    out = std::move(c).value();
                  })
          .status());
  FLB_RETURN_IF_ERROR(first_error);
  return out;
}

Result<std::vector<BigInt>> GheEngine::PaillierScalarMul(
    const crypto::PaillierContext& ctx, const std::vector<BigInt>& cs,
    const std::vector<BigInt>& ks) {
  FLB_RETURN_IF_ERROR(
      CheckSameSize(cs.size(), ks.size(), "GheEngine::PaillierScalarMul"));
  if (cs.empty()) return std::vector<BigInt>{};
  const size_t s2 = ctx.pub().CiphertextWords();
  // Effective exponent width: scalars above n/2 encode negatives -(n - k)
  // and run through the ciphertext-inverse fast path, so their cost is the
  // width of n - k, not of k.
  const BigInt half_n = BigInt::ShiftRight(ctx.pub().n, 1);
  int max_exp_bits = 1;
  for (const auto& k : ks) {
    const int eff = k > half_n ? BigInt::Sub(ctx.pub().n, k).BitLength()
                               : k.BitLength();
    max_exp_bits = std::max(max_exp_bits, eff);
  }
  std::vector<BigInt> out(cs.size());
  Status first_error;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.paillier_scalar_mul", cs.size(), s2,
                  PaillierScalarMulLimbOps(ctx.pub().key_bits, max_exp_bits),
                  BatchBytes(2 * cs.size(), s2), BatchBytes(cs.size(), s2),
                  [&] {
                    auto c = ctx.ScalarMulBatch(cs, ks, &host_pool());
                    if (!c.ok()) {
                      first_error = c.status();
                      return;
                    }
                    out = std::move(c).value();
                  })
          .status());
  FLB_RETURN_IF_ERROR(first_error);
  return out;
}

Result<std::vector<BigInt>> GheEngine::RsaEncrypt(
    const crypto::RsaContext& ctx, const std::vector<BigInt>& ms) {
  if (ms.empty()) return std::vector<BigInt>{};
  const size_t s = ctx.pub().CiphertextWords();
  // e = 65537: 17 squarings + 1 multiply.
  const uint64_t ops = 20 * MontMulLimbOps(s);
  std::vector<BigInt> out(ms.size());
  Status first_error;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.rsa_encrypt", ms.size(), s, ops,
                  BatchBytes(ms.size(), s), BatchBytes(ms.size(), s),
                  [&] {
                    first_error = common::ParallelForEachStatus(
                        host_pool(), ms.size(), [&](size_t i) -> Status {
                          FLB_ASSIGN_OR_RETURN(out[i], ctx.Encrypt(ms[i]));
                          return Status::OK();
                        });
                  })
          .status());
  FLB_RETURN_IF_ERROR(first_error);
  return out;
}

Result<std::vector<BigInt>> GheEngine::RsaDecrypt(
    const crypto::RsaContext& ctx, const std::vector<BigInt>& cs) {
  if (cs.empty()) return std::vector<BigInt>{};
  const int key_bits = ctx.pub().key_bits;
  const size_t s = ctx.pub().CiphertextWords();
  const uint64_t ops =
      2 * EstimateModPowMontMuls(key_bits / 2) * MontMulLimbOps(s / 2);
  std::vector<BigInt> out(cs.size());
  Status first_error;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.rsa_decrypt", cs.size(), s, ops,
                  BatchBytes(cs.size(), s), BatchBytes(cs.size(), s),
                  [&] {
                    first_error = common::ParallelForEachStatus(
                        host_pool(), cs.size(), [&](size_t i) -> Status {
                          FLB_ASSIGN_OR_RETURN(out[i], ctx.Decrypt(cs[i]));
                          return Status::OK();
                        });
                  })
          .status());
  FLB_RETURN_IF_ERROR(first_error);
  return out;
}

Result<std::vector<BigInt>> GheEngine::RsaMul(const crypto::RsaContext& ctx,
                                              const std::vector<BigInt>& c1,
                                              const std::vector<BigInt>& c2) {
  FLB_RETURN_IF_ERROR(CheckSameSize(c1.size(), c2.size(), "GheEngine::RsaMul"));
  if (c1.empty()) return std::vector<BigInt>{};
  const size_t s = ctx.pub().CiphertextWords();
  std::vector<BigInt> out(c1.size());
  Status first_error;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.rsa_mul", c1.size(), s, 3 * MontMulLimbOps(s),
                  BatchBytes(2 * c1.size(), s), BatchBytes(c1.size(), s),
                  [&] {
                    first_error = common::ParallelForEachStatus(
                        host_pool(), c1.size(), [&](size_t i) -> Status {
                          FLB_ASSIGN_OR_RETURN(out[i], ctx.Mul(c1[i], c2[i]));
                          return Status::OK();
                        });
                  })
          .status());
  FLB_RETURN_IF_ERROR(first_error);
  return out;
}

namespace {

// Expected prime-search work for one b-bit prime: ~b*ln(2)/2 odd candidates;
// trial division removes ~80%; survivors pay one witness exponentiation
// (composites fail fast), the final prime pays the full round count.
uint64_t PrimeSearchLimbOps(int prime_bits) {
  const size_t s = static_cast<size_t>(prime_bits) / 32;
  const double candidates = prime_bits * 0.347;
  const double mr_exponentiations = candidates * 0.2 * 1.2 + 20.0;
  return static_cast<uint64_t>(mr_exponentiations *
                               EstimateModPowMontMuls(prime_bits) *
                               MontMulLimbOps(s));
}

}  // namespace

Result<crypto::PaillierKeyPair> GheEngine::PaillierKeyGen(int key_bits,
                                                          Rng& rng) {
  crypto::PaillierKeyPair keys;
  Status status;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.paillier_keygen", /*count=*/2, key_bits / 2 / 32,
                  PrimeSearchLimbOps(key_bits / 2),
                  /*bytes_in=*/64, /*bytes_out=*/key_bits / 4,
                  [&] {
                    auto result = crypto::PaillierKeyGen(key_bits, rng);
                    if (result.ok()) {
                      keys = std::move(result).value();
                    } else {
                      status = result.status();
                    }
                  })
          .status());
  FLB_RETURN_IF_ERROR(status);
  return keys;
}

Result<crypto::RsaKeyPair> GheEngine::RsaKeyGen(int key_bits, Rng& rng) {
  crypto::RsaKeyPair keys;
  Status status;
  FLB_RETURN_IF_ERROR(
      LaunchBatch("ghe.rsa_keygen", /*count=*/2, key_bits / 2 / 32,
                  PrimeSearchLimbOps(key_bits / 2),
                  /*bytes_in=*/64, /*bytes_out=*/key_bits / 4,
                  [&] {
                    auto result = crypto::RsaKeyGen(key_bits, rng);
                    if (result.ok()) {
                      keys = std::move(result).value();
                    } else {
                      status = result.status();
                    }
                  })
          .status());
  FLB_RETURN_IF_ERROR(status);
  return keys;
}

// ---------------------------------------------------------------------------
// Timing-only models
// ---------------------------------------------------------------------------

Result<gpusim::LaunchResult> GheEngine::ModelPaillierEncrypt(int key_bits,
                                                             int64_t count) {
  const size_t s2 = CiphertextLimbs(key_bits);
  return LaunchBatch("ghe.model_encrypt", count, s2,
                     PaillierEncryptLimbOps(key_bits),
                     BatchBytes(count, s2 / 2), BatchBytes(count, s2),
                     /*body=*/nullptr);
}

Result<gpusim::LaunchResult> GheEngine::ModelPaillierDecrypt(int key_bits,
                                                             int64_t count,
                                                             bool crt) {
  const size_t s2 = CiphertextLimbs(key_bits);
  return LaunchBatch("ghe.model_decrypt", count, s2,
                     PaillierDecryptLimbOps(key_bits, crt),
                     BatchBytes(count, s2), BatchBytes(count, s2 / 2),
                     /*body=*/nullptr);
}

Result<gpusim::LaunchResult> GheEngine::ModelPaillierAdd(int key_bits,
                                                         int64_t count) {
  const size_t s2 = CiphertextLimbs(key_bits);
  return LaunchBatch("ghe.model_add", count, s2, PaillierAddLimbOps(key_bits),
                     BatchBytes(2 * count, s2), BatchBytes(count, s2),
                     /*body=*/nullptr);
}

Result<gpusim::LaunchResult> GheEngine::ModelPaillierAddPlain(int key_bits,
                                                              int64_t count) {
  const size_t s2 = CiphertextLimbs(key_bits);
  return LaunchBatch("ghe.model_add_plain", count, s2,
                     PaillierAddPlainLimbOps(key_bits),
                     BatchBytes(count, s2) + BatchBytes(count, s2 / 2),
                     BatchBytes(count, s2), /*body=*/nullptr);
}

Result<gpusim::LaunchResult> GheEngine::ModelPaillierScalarMul(int key_bits,
                                                               int64_t count,
                                                               int exp_bits) {
  const size_t s2 = CiphertextLimbs(key_bits);
  return LaunchBatch("ghe.model_scalar_mul", count, s2,
                     PaillierScalarMulLimbOps(key_bits, exp_bits),
                     BatchBytes(2 * count, s2), BatchBytes(count, s2),
                     /*body=*/nullptr);
}

Result<gpusim::LaunchResult> GheEngine::ModelBatch(
    const char* name, int64_t count, size_t s, uint64_t limb_ops_per_elt,
    size_t bytes_in, size_t bytes_out) {
  return LaunchBatch(name, count, s, limb_ops_per_elt, bytes_in, bytes_out,
                     /*body=*/nullptr);
}

double GheEngine::ModelTransferToDevice(size_t bytes) {
  return device_->CopyToDevice(bytes);
}

double GheEngine::ModelTransferFromDevice(size_t bytes) {
  return device_->CopyFromDevice(bytes);
}

}  // namespace flb::ghe
