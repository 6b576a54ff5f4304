// The token-local rules FLB001–FLB006 of flb_analyze.
//
// These rules ban names line by line over the token stream, with no flow
// model: wall-clock reads (FLB001), unseeded entropy (FLB002), iteration
// over unordered containers (FLB003), mutex members invisible to
// -Wthread-safety (FLB004), dropped Status/Result values (FLB005), and
// retry loops with no budget (FLB006). The flow-aware rules FLB007–FLB009
// do not subsume them: a banned name that never reaches a sink is still a
// finding here. Every finding goes through the analyzer's one emission
// path (allowlist, inline allow, baseline; see analyze.h).

#ifndef FLB_TOOLS_FLB_ANALYZE_TOKEN_RULES_H_
#define FLB_TOOLS_FLB_ANALYZE_TOKEN_RULES_H_

#include <functional>
#include <string>
#include <vector>

#include "tools/flb_analyze/token.h"

namespace flb::analyze {

// Receives one token-rule finding. `cited` is the name the finding is
// about (the banned identifier, `<header>`, container, mutex member,
// callee, or loop keyword); it feeds the finding's line-independent key.
using TokenFindingSink =
    std::function<void(const SourceFile& file, int line, const char* rule,
                       const std::string& cited, std::string message)>;

// Runs FLB001–FLB006 over `files` as one translation set: the index of
// Status/Result-returning function names (FLB005) is built across all of
// them before any file is checked.
void CheckTokenRules(const std::vector<SourceFile>& files,
                     const TokenFindingSink& emit);

}  // namespace flb::analyze

#endif  // FLB_TOOLS_FLB_ANALYZE_TOKEN_RULES_H_
