// flb_analyze: FLBooster's static-analysis tool.
//
// The platform's reproducibility claims rest on invariants a C++ compiler
// cannot see: simulated time and byte accounting must be deterministic
// and bit-identical across thread counts, and every lock must be visible
// to Clang's thread-safety analysis and taken in one global order. One
// pass reads and tokenizes each file once (no libclang, no preprocessor)
// and runs nine rules:
//
//   FLB001 wall-clock        banned wall-clock/time APIs in simulated paths
//   FLB002 entropy           banned unseeded randomness outside common::Rng
//   FLB003 unordered-iter    iteration over std::unordered_{map,set}
//   FLB004 mutex-annotation  mutex members without thread-safety annotations
//   FLB005 discarded-status  Status/Result<T> return values silently dropped
//   FLB006 unbounded-retry   retry loops with no attempt/deadline budget
//   FLB007 lock-order        static deadlock detection: cycles in the global
//                            lock-acquisition graph, plus calls into the
//                            metrics/trace/clock plane made while a
//                            component lock is held (leaf-lock discipline)
//   FLB008 determinism-taint wall-clock, ambient-entropy, pointer-order,
//                            and unordered-iteration values propagated
//                            through assignments, returns, and call edges
//                            into sim-time charging, serialized bytes, Rng
//                            seeding, and RunReport fields
//   FLB009 layering          the architecture include DAG (common -> mpint
//                            -> crypto -> {codec,gpusim,net} -> ghe ->
//                            core -> fl), with an explicit exceptions file
//                            for the sanctioned back-edges
//
// FLB001–FLB006 are token-local (token_rules.h); FLB007–FLB009 run over
// per-file facts (facts.h) resolved across the whole tree.
//
// Every finding carries a line-number-independent `key` and goes through
// one emission path, in this order: the compiled-in file allowlist
// (DefaultAllowlist), then an inline `// flb-lint: allow(FLB00N) reason`
// on the finding line (or `allow-next-line(...)` on the line above; a bare
// allow() without a reason does not suppress and is marked on the
// finding), then the reviewed baseline file of accepted keys.

#ifndef FLB_TOOLS_FLB_ANALYZE_ANALYZE_H_
#define FLB_TOOLS_FLB_ANALYZE_ANALYZE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace flb::analyze {

struct RuleInfo {
  const char* id;       // "FLB001"
  const char* name;     // "wall-clock"
  const char* summary;  // one-line description for --list-rules / docs
};

// The fixed rule table (FLB001..FLB009), in rule-ID order.
const std::vector<RuleInfo>& Rules();

struct Finding {
  std::string rule;  // "FLB001" .. "FLB009"
  std::string file;  // normalized path
  int line = 0;
  std::string message;
  // Stable identity: independent of line numbers, so the baseline survives
  // unrelated edits. E.g. "FLB007|cycle|A::mu_+B::mu_"; token-rule keys
  // are `<rule>|<file>|<cited name>|<n>`, n counting that name's findings
  // of that rule in the file ("FLB001|src/x.cc|steady_clock|2").
  std::string key;
  // Human-readable witness: the interprocedural path that produced the
  // finding, one hop per entry.
  std::vector<std::string> witness;
};

// One sanctioned layering back-edge: includes from any file whose
// normalized path matches `from` (exact path, or "*" for any) into layer
// directory `to_layer` ("src/fl") are exempt from FLB009.
struct LayerException {
  std::string from;
  std::string to_layer;
  std::string reason;
};

// One allowlist entry: `rule` is exempt in every file whose normalized
// path ends with `path_suffix`.
struct AllowEntry {
  std::string rule;
  std::string path_suffix;
};

// The compiled-in exemptions: the files that legitimately own wall-clock
// and entropy primitives.
std::vector<AllowEntry> DefaultAllowlist();

struct Options {
  std::vector<AllowEntry> allowlist = DefaultAllowlist();
  std::vector<LayerException> layering_exceptions;
  std::set<std::string> baseline;  // finding keys accepted as known debt
};

// Parses `<from-path-or-*> -> <to-layer> -- <reason>` lines (# comments
// and blank lines ignored). The reason is mandatory: an exception without
// a recorded justification is a malformed file.
bool LoadExceptionsFile(const std::string& path,
                        std::vector<LayerException>* out, std::string* error);

// Parses a baseline file: one finding key per line, # comments ignored.
bool LoadBaselineFile(const std::string& path, std::set<std::string>* out,
                      std::string* error);

struct Report {
  std::vector<Finding> findings;  // new (non-baselined), sorted
  uint64_t files_scanned = 0;
  uint64_t functions_analyzed = 0;
  uint64_t lock_nodes = 0;       // distinct locks in the acquisition graph
  uint64_t lock_edges = 0;
  uint64_t include_edges = 0;
  uint64_t baselined = 0;        // findings matched by the baseline
  uint64_t suppressed = 0;       // silenced by justified inline allow()
  uint64_t allowlisted = 0;      // silenced by a file allowlist entry
  uint64_t unjustified_allows = 0;  // allow() with no reason (not silenced)
};

struct FileInput {
  std::string path;
  std::string content;
};

// Analyzes in-memory files as one translation set with all nine rules:
// cross-file resolution (FLB005's Status index, call edges, the
// unordered-name index, include layers) spans every file.
Report AnalyzeFiles(const std::vector<FileInput>& files, const Options& opts);

// Reads every *.h / *.cc / *.cpp under `root` (recursive, sorted order)
// and analyzes the tree. Returns false with `error` set when the root is
// missing or a file cannot be read.
bool AnalyzeTree(const std::string& root, const Options& opts, Report* report,
                 std::string* error);

// BenchJson summary (`flb.analyze.*` metrics), schema-compatible with
// scripts/validate_obs_json.sh.
std::string ReportToBenchJson(const Report& report);

// SARIF 2.1.0 log with one result per finding, fingerprinted by `key`
// (uploaded to GitHub code scanning by the CI lint job).
std::string ReportToSarif(const Report& report);

// All finding keys, one per line, in sorted order — the exact content a
// baseline file accepting the current findings should have.
std::string ReportToBaseline(const Report& report);

}  // namespace flb::analyze

#endif  // FLB_TOOLS_FLB_ANALYZE_ANALYZE_H_
