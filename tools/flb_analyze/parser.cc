#include "tools/flb_analyze/parser.h"

#include <cctype>
#include <set>

namespace flb::analyze {

namespace {

const std::set<std::string>& StmtKeywords() {
  static const std::set<std::string> kw = {
      "if",       "for",      "while",    "switch",   "return",
      "sizeof",   "catch",    "operator", "assert",   "static_assert",
      "decltype", "alignof",  "noexcept", "defined",  "co_return",
      "co_await", "co_yield", "throw",    "new",      "delete",
      "case",     "goto",     "do",       "else",     "typeid"};
  return kw;
}

const std::set<std::string>& TypeKeywords() {
  static const std::set<std::string> kw = {
      "int",      "double",   "float",    "char",   "bool",    "void",
      "auto",     "unsigned", "signed",   "long",   "short",   "const",
      "volatile", "size_t",   "uint64_t", "uint32_t", "uint16_t",
      "uint8_t",  "int64_t",  "int32_t",  "int16_t", "int8_t", "wchar_t"};
  return kw;
}

bool IsAllCaps(const std::string& s) {
  bool has_alpha = false;
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c))) return false;
    if (std::isupper(static_cast<unsigned char>(c))) has_alpha = true;
  }
  return has_alpha;
}

// Parameter names from the token range strictly inside the parens.
std::vector<std::string> ExtractParams(const std::vector<Token>& t,
                                       size_t begin, size_t end) {
  std::vector<std::string> params;
  size_t seg_start = begin;
  int depth = 0;
  auto flush = [&](size_t seg_end) {
    // Strip a trailing default value.
    size_t stop = seg_end;
    int d = 0;
    for (size_t j = seg_start; j < seg_end; ++j) {
      const std::string& x = t[j].text;
      if (x == "(" || x == "<" || x == "[" || x == "{") ++d;
      if (x == ")" || x == ">" || x == "]" || x == "}") --d;
      if (x == "=" && d == 0) {
        stop = j;
        break;
      }
    }
    if (stop == seg_start) return;  // empty segment
    if (stop == seg_start + 1 && t[seg_start].text == "void") return;
    std::string name;
    for (size_t j = seg_start; j < stop; ++j) {
      if (t[j].kind == Token::Kind::kIdent) name = t[j].text;
      if (t[j].text == "[") break;  // array suffix: name precedes it
    }
    if (TypeKeywords().count(name) != 0 || IsAllCaps(name)) name.clear();
    params.push_back(name);
  };
  for (size_t j = begin; j < end; ++j) {
    const std::string& x = t[j].text;
    if (x == "(" || x == "<" || x == "[" || x == "{") ++depth;
    if (x == ")" || x == ">" || x == "]" || x == "}") --depth;
    if (x == "," && depth == 0) {
      flush(j);
      seg_start = j + 1;
    }
  }
  flush(end);
  return params;
}

struct Scope {
  enum class Kind { kNamespace, kClass, kOther };
  Kind kind = Kind::kOther;
  std::string name;
};

class Parser {
 public:
  explicit Parser(const std::vector<Token>& t) : t_(t) {}

  ParsedFile Run() {
    size_t i = 0;
    while (i < t_.size()) i = Step(i);
    return std::move(out_);
  }

 private:
  // Processes the construct starting at token i; returns the next index.
  size_t Step(size_t i) {
    const Token& tok = t_[i];
    if (tok.text == "#") return Directive(i);
    if (tok.text == "template" && Is(t_, i + 1, "<")) {
      return SkipBalanced(t_, i + 1, "<", ">");
    }
    if (tok.text == "namespace") return Namespace(i);
    if (tok.text == "class" || tok.text == "struct" || tok.text == "union") {
      return ClassDecl(i);
    }
    if (tok.text == "enum") return EnumDecl(i);
    if (tok.text == "{") {
      scopes_.push_back(Scope{Scope::Kind::kOther, ""});
      return i + 1;
    }
    if (tok.text == "}") {
      if (!scopes_.empty()) scopes_.pop_back();
      return i + 1;
    }
    if (tok.text == "=") {
      // Namespace/class-scope initializer: skip to the terminating ';' so
      // brace-initializers don't disturb scope tracking.
      return SkipToSemicolon(i);
    }
    if (IsIdent(t_, i) && Is(t_, i + 1, "(") &&
        StmtKeywords().count(tok.text) == 0) {
      return Candidate(i);
    }
    return i + 1;
  }

  size_t Directive(size_t i) {
    const int line = t_[i].line;
    if (Is(t_, i + 1, "include")) {
      IncludeDecl inc;
      inc.line = line;
      if (IsString(t_, i + 2)) {
        inc.target = t_[i + 2].text;
        out_.includes.push_back(std::move(inc));
        return i + 3;
      }
      if (Is(t_, i + 2, "<")) {
        size_t j = i + 3;
        for (; j < t_.size() && t_[j].text != ">" && t_[j].line == line; ++j) {
          inc.target += t_[j].text;
        }
        inc.angled = true;
        out_.includes.push_back(std::move(inc));
        return j + 1;
      }
      return i + 2;
    }
    if (!t_[i].text.empty()) {
      // Any other directive: consume the rest of its (first) line. Multi-
      // line macro bodies re-enter the stream; they are balanced in
      // practice, so scope tracking survives.
      size_t j = i + 1;
      while (j < t_.size() && t_[j].line == line) ++j;
      return j;
    }
    return i + 1;
  }

  size_t Namespace(size_t i) {
    size_t j = i + 1;
    std::string name;
    while (IsIdent(t_, j) || Is(t_, j, "::")) {
      if (IsIdent(t_, j)) name = t_[j].text;
      ++j;
    }
    if (Is(t_, j, "{")) {
      scopes_.push_back(Scope{Scope::Kind::kNamespace, name});
      return j + 1;
    }
    if (Is(t_, j, "=")) return SkipToSemicolon(j);  // namespace alias
    return j;
  }

  size_t ClassDecl(size_t i) {
    // Scan to the first top-level '{' (definition), ';' (forward decl), or
    // '(' (e.g. a variable `struct X x(...)` — treat as other).
    std::string name;
    std::string caps_name;  // all-caps fallback: `class API` vs `FLB_EXPORT`
    int depth = 0;
    bool in_bases = false;
    for (size_t j = i + 1; j < t_.size(); ++j) {
      const std::string& x = t_[j].text;
      if (x == "<" || x == "(" || x == "[") ++depth;
      if (x == ">" || x == ")" || x == "]") --depth;
      if (depth > 0) continue;
      if (x == ":") in_bases = true;
      if (IsIdent(t_, j) && !in_bases && x != "final") {
        // All-caps idents are usually attribute macros (`class FLB_EXPORT
        // Foo`); prefer any mixed-case name, but an all-caps one is better
        // than leaving the scope anonymous (`class API`, `class A`).
        if (!IsAllCaps(x)) {
          name = x;
        } else {
          caps_name = x;
        }
      }
      if (x == "{") {
        scopes_.push_back(
            Scope{Scope::Kind::kClass, name.empty() ? caps_name : name});
        return j + 1;
      }
      if (x == ";" || x == "=") return j + 1;
    }
    return t_.size();
  }

  size_t EnumDecl(size_t i) {
    for (size_t j = i + 1; j < t_.size(); ++j) {
      if (t_[j].text == "{") return SkipBalanced(t_, j, "{", "}");
      if (t_[j].text == ";") return j + 1;
    }
    return t_.size();
  }

  size_t SkipToSemicolon(size_t i) {
    int depth = 0;
    for (size_t j = i; j < t_.size(); ++j) {
      const std::string& x = t_[j].text;
      if (x == "(" || x == "{" || x == "[") ++depth;
      if (x == ")" || x == "}" || x == "]") --depth;
      if (x == ";" && depth <= 0) return j + 1;
    }
    return t_.size();
  }

  // `i` is an identifier followed by '('. Decide whether this is a function
  // definition; record it and skip the body if so.
  size_t Candidate(size_t i) {
    const size_t paren_end = SkipBalanced(t_, i + 1, "(", ")");
    if (paren_end >= t_.size()) return i + 1;

    // Out-of-line qualification: `Class::Method(` — the ident right before
    // the final `::` names the class.
    std::string class_name;
    if (i >= 2 && Is(t_, i - 1, "::") && IsIdent(t_, i - 2)) {
      class_name = t_[i - 2].text;
    } else {
      for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
        if (it->kind == Scope::Kind::kClass) {
          class_name = it->name;
          break;
        }
        if (it->kind == Scope::Kind::kOther) break;
      }
    }

    // Walk the post-parameter qualifiers looking for the body '{'.
    size_t k = paren_end;
    bool ctor_inits = false;
    for (size_t steps = 0; k < t_.size() && steps < 4096; ++steps) {
      const std::string& x = t_[k].text;
      if (x == "{") {
        if (ctor_inits && k > 0 &&
            (IsIdent(t_, k - 1) || t_[k - 1].text == ">")) {
          // Brace-initializer inside a member-init list: `: a_{1}`.
          k = SkipBalanced(t_, k, "{", "}");
          continue;
        }
        break;  // the body
      }
      if (x == ";" || x == "=") return k + 1;  // declaration / `= default`
      if (x == ":") {
        ctor_inits = true;
        ++k;
        continue;
      }
      if (x == "(") {
        k = SkipBalanced(t_, k, "(", ")");
        continue;
      }
      if (x == "[") {
        k = SkipBalanced(t_, k, "[", "]");
        continue;
      }
      if (x == "<") {
        k = SkipBalanced(t_, k, "<", ">");
        continue;
      }
      ++k;
    }
    if (k >= t_.size() || t_[k].text != "{") return paren_end;

    FunctionDecl fn;
    fn.name = t_[i].text;
    fn.class_name = class_name;
    fn.qual_name =
        class_name.empty() ? fn.name : class_name + "::" + fn.name;
    fn.line = t_[i].line;
    fn.body_begin = k;
    fn.body_end = SkipBalanced(t_, k, "{", "}");
    fn.params = ExtractParams(t_, i + 2, paren_end - 1);
    out_.functions.push_back(std::move(fn));
    return out_.functions.back().body_end;
  }

  const std::vector<Token>& t_;
  std::vector<Scope> scopes_;
  ParsedFile out_;
};

}  // namespace

ParsedFile ParseFile(const std::vector<Token>& tokens) {
  return Parser(tokens).Run();
}

}  // namespace flb::analyze
