#include "tools/flb_analyze/cfg.h"

#include <algorithm>

namespace flb::analyze {

namespace {

class Builder {
 public:
  Builder(const std::vector<Token>& t) : t_(t) {}

  Cfg Build(size_t begin, size_t end) {
    cfg_.blocks.emplace_back();  // entry = 0
    cfg_.blocks.emplace_back();  // exit = 1
    cfg_.entry = 0;
    cfg_.exit = 1;
    size_t body_end = end > begin ? end - 1 : begin;  // exclude closing '}'
    const size_t out = ParseSeq(begin + 1, body_end, cfg_.entry);
    Edge(out, cfg_.exit);
    return std::move(cfg_);
  }

 private:
  size_t NewBlock() {
    cfg_.blocks.emplace_back();
    return cfg_.blocks.size() - 1;
  }

  void Edge(size_t a, size_t b) {
    auto& s = cfg_.blocks[a].succs;
    if (std::find(s.begin(), s.end(), b) == s.end()) s.push_back(b);
  }

  void AppendStmt(size_t block, size_t begin, size_t end) {
    if (end <= begin) return;
    cfg_.blocks[block].stmts.push_back(Stmt{begin, end, t_[begin].line});
  }

  // Parses statements in [i, end); returns the block control flows out of.
  size_t ParseSeq(size_t i, size_t end, size_t cur) {
    while (i < end && i < t_.size()) {
      cur = ParseStmt(&i, end, cur);
    }
    return cur;
  }

  // Parses one statement starting at *i (advances it); returns the block
  // control continues in.
  size_t ParseStmt(size_t* i, size_t end, size_t cur) {
    const size_t at = *i;
    const std::string& x = t_[at].text;

    if (x == "{") {
      const size_t close = std::min(SkipBalanced(t_, at, "{", "}"), end);
      const size_t out = ParseSeq(at + 1, close > at ? close - 1 : at, cur);
      *i = close;
      return out;
    }

    if (x == "if" && Is(t_, at + 1, "(")) {
      const size_t cond_end = std::min(SkipBalanced(t_, at + 1, "(", ")"), end);
      // `if constexpr (...)` never has the parens at at+1; handled below by
      // the generic path since t_[at+1] would be "constexpr".
      AppendStmt(cur, at, cond_end);
      *i = cond_end;
      const size_t then_entry = NewBlock();
      Edge(cur, then_entry);
      const size_t then_out = ParseStmt(i, end, then_entry);
      const size_t join = NewBlock();
      Edge(then_out, join);
      if (*i < end && Is(t_, *i, "else")) {
        ++*i;
        const size_t else_entry = NewBlock();
        Edge(cur, else_entry);
        const size_t else_out = ParseStmt(i, end, else_entry);
        Edge(else_out, join);
      } else {
        Edge(cur, join);
      }
      return join;
    }

    if ((x == "while" || x == "for") && Is(t_, at + 1, "(")) {
      const size_t cond_end = std::min(SkipBalanced(t_, at + 1, "(", ")"), end);
      const size_t header = NewBlock();
      Edge(cur, header);
      AppendStmt(header, at, cond_end);
      *i = cond_end;
      const size_t exit = NewBlock();
      loops_.push_back({header, exit});
      const size_t body_entry = NewBlock();
      Edge(header, body_entry);
      const size_t body_out = ParseStmt(i, end, body_entry);
      Edge(body_out, header);
      Edge(header, exit);
      loops_.pop_back();
      return exit;
    }

    if (x == "do") {
      ++*i;
      const size_t body_entry = NewBlock();
      Edge(cur, body_entry);
      const size_t exit = NewBlock();
      loops_.push_back({body_entry, exit});
      const size_t body_out = ParseStmt(i, end, body_entry);
      loops_.pop_back();
      // `while (cond);` tail.
      if (*i < end && Is(t_, *i, "while") && Is(t_, *i + 1, "(")) {
        const size_t cond_end =
            std::min(SkipBalanced(t_, *i + 1, "(", ")"), end);
        AppendStmt(body_out, *i, cond_end);
        *i = cond_end;
        if (*i < end && Is(t_, *i, ";")) ++*i;
      }
      Edge(body_out, body_entry);
      Edge(body_out, exit);
      return exit;
    }

    if (x == "switch" && Is(t_, at + 1, "(")) {
      const size_t cond_end = std::min(SkipBalanced(t_, at + 1, "(", ")"), end);
      AppendStmt(cur, at, cond_end);
      *i = cond_end;
      const size_t exit = NewBlock();
      loops_.push_back({0, exit});  // break target only
      const size_t body_out = ParseStmt(i, end, cur);
      loops_.pop_back();
      Edge(body_out, exit);
      Edge(cur, exit);
      return exit;
    }

    if (x == "case" || x == "default") {
      size_t j = at;
      while (j < end && !Is(t_, j, ":")) ++j;
      *i = j < end ? j + 1 : end;
      return cur;
    }

    if (x == "return" || x == "co_return") {
      const size_t semi = FindSemicolon(at, end);
      AppendStmt(cur, at, semi);
      Edge(cur, cfg_.exit);
      *i = semi < end ? semi + 1 : end;
      return NewBlock();  // dead continuation
    }

    if (x == "break" || x == "continue") {
      *i = at + 1 < end && Is(t_, at + 1, ";") ? at + 2 : at + 1;
      if (!loops_.empty()) {
        if (x == "break") {
          Edge(cur, loops_.back().exit);
        } else if (loops_.back().header != 0) {
          Edge(cur, loops_.back().header);
        }
      }
      return NewBlock();  // dead continuation
    }

    if (x == "else") {  // stray else (shouldn't happen); skip token
      *i = at + 1;
      return cur;
    }

    // Default: one expression/declaration statement up to the terminating
    // ';' at bracket depth zero (lambdas and brace-inits stay inside).
    const size_t semi = FindSemicolon(at, end);
    AppendStmt(cur, at, semi);
    *i = semi < end ? semi + 1 : end;
    return cur;
  }

  size_t FindSemicolon(size_t i, size_t end) const {
    int depth = 0;
    for (size_t j = i; j < end; ++j) {
      const std::string& x = t_[j].text;
      if (x == "(" || x == "{" || x == "[") ++depth;
      if (x == ")" || x == "}" || x == "]") --depth;
      if (x == ";" && depth <= 0) return j;
    }
    return end;
  }

  struct Loop {
    size_t header;
    size_t exit;
  };

  const std::vector<Token>& t_;
  Cfg cfg_;
  std::vector<Loop> loops_;
};

}  // namespace

std::vector<Stmt> Cfg::Statements() const {
  std::vector<Stmt> out;
  for (const Block& b : blocks) {
    out.insert(out.end(), b.stmts.begin(), b.stmts.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Stmt& a, const Stmt& b) { return a.begin < b.begin; });
  return out;
}

Cfg BuildCfg(const std::vector<Token>& tokens, size_t begin,
             size_t end) {
  return Builder(tokens).Build(begin, end);
}

}  // namespace flb::analyze
