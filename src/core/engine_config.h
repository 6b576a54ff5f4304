// Engine configurations: the systems the paper compares.
//
//   FATE       — CPU homomorphic encryption, no compression (baseline).
//   HAFLO      — GPU HE, but with a coarse thread split, no resource-manager
//                branch combining, and no compression (the SOTA baseline).
//   FLBooster  — GPU HE with the resource manager + batch compression.
//   w/o GHE    — FLBooster ablation: batch compression but CPU HE.
//   w/o BC     — FLBooster ablation: GPU HE but no compression.
//
// Every FL model runs unchanged under each engine; only these traits differ
// (Table III / Table V's experimental axes).

#ifndef FLB_CORE_ENGINE_CONFIG_H_
#define FLB_CORE_ENGINE_CONFIG_H_

#include <string>

namespace flb::core {

enum class EngineKind : int {
  kFate = 0,
  kHaflo = 1,
  kFlBooster = 2,
  kFlBoosterNoGhe = 3,  // ablation: w/o GHE
  kFlBoosterNoBc = 4,   // ablation: w/o BC
};

struct EngineTraits {
  bool gpu_he = false;           // HE ops on the simulated GPU vs the CPU
  bool use_bc = false;           // batch compression on transmitted vectors
  bool branch_combining = true;  // resource-manager branch management
  int words_per_thread = 4;      // Algorithm 2 thread split granularity
  // Device streams for chunked copy/compute overlap on large HE batches
  // (§V Fig. 4). 1 = fully synchronous staging; FLBooster pipelines across
  // 4 streams, the HAFLO/FATE baselines stay serial.
  int gpu_streams = 1;
};

inline EngineTraits TraitsFor(EngineKind kind) {
  switch (kind) {
    case EngineKind::kFate:
      return {.gpu_he = false, .use_bc = false};
    case EngineKind::kHaflo:
      // HAFLO ports HE to the GPU but without FLBooster's resource manager:
      // unmanaged divergent branches and a coarse one-thread-per-big-chunk
      // decomposition.
      return {.gpu_he = true,
              .use_bc = false,
              .branch_combining = false,
              .words_per_thread = 16};
    case EngineKind::kFlBooster:
      return {.gpu_he = true, .use_bc = true, .gpu_streams = 4};
    case EngineKind::kFlBoosterNoGhe:
      return {.gpu_he = false, .use_bc = true};
    case EngineKind::kFlBoosterNoBc:
      return {.gpu_he = true, .use_bc = false, .gpu_streams = 4};
  }
  return {};
}

inline std::string EngineName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kFate:
      return "FATE";
    case EngineKind::kHaflo:
      return "HAFLO";
    case EngineKind::kFlBooster:
      return "FLBooster";
    case EngineKind::kFlBoosterNoGhe:
      return "w/o GHE";
    case EngineKind::kFlBoosterNoBc:
      return "w/o BC";
  }
  return "unknown";
}

}  // namespace flb::core

#endif  // FLB_CORE_ENGINE_CONFIG_H_
