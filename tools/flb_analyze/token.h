// The C++ tokenizer every flb_analyze rule reads.
//
// The tokenizer produces identifiers, numbers, and (multi-char)
// punctuation with line numbers. Comments and string/char literals are
// consumed, never tokenized, so banned names inside literals or prose
// cannot trip a rule; `// flb-lint: allow(...)` suppression directives are
// harvested from comments while they are skipped. No preprocessor is run —
// `#` and the following tokens appear in the stream, which is how the
// include-graph scan reads `#include "..."` lines.

#ifndef FLB_TOOLS_FLB_ANALYZE_TOKEN_H_
#define FLB_TOOLS_FLB_ANALYZE_TOKEN_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace flb::analyze {

struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kString };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;
};

struct Suppression {
  std::set<std::string> rules;  // empty set = malformed allow()
  bool justified = false;       // a non-empty reason followed the rule list
};

// line -> suppression harvested from `// flb-lint: allow(...)` comments.
using SuppressionMap = std::map<int, Suppression>;

// Tokenizes `src`. String/char literals are appended as kString tokens
// carrying their *contents* (quotes stripped) so include directives can be
// resolved; rules that only look at kIdent tokens are unaffected.
void Tokenize(const std::string& src, std::vector<Token>* tokens,
              SuppressionMap* suppressions);

// One tokenized source file: the unit every rule reads. Each file is read
// and tokenized once per run.
struct SourceFile {
  std::string path;  // normalized (see NormalizePath in facts.h)
  std::vector<Token> tokens;
  SuppressionMap suppressions;
};

// ---- token-stream helpers -------------------------------------------------

bool Is(const std::vector<Token>& t, size_t i, const char* text);
bool IsIdent(const std::vector<Token>& t, size_t i);
bool IsString(const std::vector<Token>& t, size_t i);

// Index just past a balanced bracket run starting at `open` (which must be
// the opening bracket); t.size() when unbalanced. Template-argument scans
// (`<`...`>`) bail out on statement glue (`;` or `{`): a stray `<` was a
// comparison, not a bracket.
size_t SkipBalanced(const std::vector<Token>& t, size_t open,
                    const char* open_text, const char* close_text);

}  // namespace flb::analyze

#endif  // FLB_TOOLS_FLB_ANALYZE_TOKEN_H_
